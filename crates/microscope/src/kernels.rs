//! Processing kernels: subsampling, pixel averaging, and the `project`
//! data transformation (paper §2 Eq. 3 and §3, Fig. 2).
//!
//! One row-streaming renderer serves all of them. Its input is a set of
//! *tiles* (rectangles of row-major RGB samples: chunk pages, or a cached
//! result image) and a window over them; its output goes straight into
//! the rows of the caller's final image. Per output row it either sums
//! the row's `zoom` sample rows (its *slab*) into one column buffer,
//! reduces that horizontally once and divides by the constant `zoom²`
//! (averaging), or gathers every `zoom`-th sample of one row
//! (subsampling). At zoom 2, 4 and 8 the sums and the reduction are
//! `vmqs-storage`'s byte-sum primitives, vectorised where the CPU allows,
//! and when every tile the slab meets holds all of its rows (every slab of
//! a projection, and all but the slabs that straddle a chunk row), each
//! column's sum is written in one pass over the tile's rows; a straddling
//! slab, and every slab at another zoom, zero-fills the buffer and adds
//! each tile's rows into it. A full compute touches each input and output
//! byte once.
//!
//! Alignment invariants from [`VmQuery`] (window origin/size are multiples
//! of the zoom, windows lie inside the slide) make every averaging block
//! complete and make `project` — computing part of one query's output
//! from another's cached output — exact, never resampled.

use crate::dataset::BYTES_PER_PIXEL;
use crate::image::{RgbImage, RgbView};
use crate::query::{VmOp, VmQuery};
use std::ops::AddAssign;
use std::sync::{Arc, OnceLock};
use vmqs_core::Rect;

const BPP: usize = BYTES_PER_PIXEL as usize;

/// Minimum sample bytes per band before row-banded parallelism pays for a
/// scoped-thread spawn of 0.05 ms that, measured cold, costs as much again
/// in the band it delays. The vectorised averaging kernel streams 2 MiB of
/// prefetched pages in about 0.19 ms (a 3 MiB zoom-4 window in 290 µs on
/// one thread of a 2-core Xeon VM); at 1 MiB, that window split into two
/// bands and took 175-185 µs, so bands pay from about 1 MiB. The bound
/// stays at 2 MiB: the engine renders streamed on one thread, and the
/// callers that band (the benchmark's layer replay and the criterion
/// cases) keep rendering a `batch_scan` window in one band, comparable
/// with their earlier runs.
const MIN_BAND_BYTES: usize = 2 << 20;

/// Largest zoom whose column sums (`255 * zoom`) fit a `u16`.
const MAX_U16_ZOOM: u32 = u16::MAX as u32 / 255;

/// Worker threads available for row-banded kernels: the machine's
/// available parallelism, capped (bands get too thin beyond the cap).
pub fn kernel_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
}

/// A rectangle of row-major RGB samples, `rect.w` pixels per row.
type Tile<'a> = (Rect, &'a [u8]);

/// What to render: `win` (in the tiles' pixel grid, zoom-aligned) reduced
/// by `zoom` with `op`. `tiles` are sorted by `(y, x)`, disjoint, and
/// cover `win`.
#[derive(Clone, Copy)]
struct Source<'a> {
    tiles: &'a [Tile<'a>],
    win: Rect,
    zoom: u32,
    op: VmOp,
}

/// Where it lands: `rows` holds whole rows (`stride` bytes each) of the
/// final image, one per output row of the window, and the window's pixels
/// start `x_off` bytes into each.
struct Dest<'a> {
    rows: &'a mut [u8],
    stride: usize,
    x_off: usize,
}

impl<'a> Dest<'a> {
    /// The `w × h` pixel block of `out` whose top-left is `(ox, oy)`.
    fn block(out: &'a mut RgbImage, (ox, oy): (u32, u32), (w, h): (u32, u32)) -> Self {
        assert!(ox + w <= out.width && oy + h <= out.height);
        let stride = out.width as usize * BPP;
        Dest {
            rows: &mut out.data[oy as usize * stride..(oy + h) as usize * stride],
            stride,
            x_off: ox as usize * BPP,
        }
    }
}

/// One tile's share of a slab: `rows` rows of `len` sample bytes, `stride`
/// bytes apart in `data`, that land `off` bytes into the slab's row. The
/// tile holds `tile_rows` rows from the part's first on.
struct Part<'a> {
    off: usize,
    len: usize,
    rows: usize,
    tile_rows: usize,
    stride: usize,
    data: &'a [u8],
}

impl<'a> Part<'a> {
    /// The part's `k`-th row of samples.
    fn row(&self, k: usize) -> &'a [u8] {
        &self.data[k * self.stride..][..self.len]
    }

    /// All of the part's rows (at most `buf.len()`), gathered in `buf`.
    fn rows<'b>(&self, buf: &'b mut [&'a [u8]]) -> &'b [&'a [u8]] {
        for (k, r) in buf[..self.rows].iter_mut().enumerate() {
            *r = self.row(k);
        }
        &buf[..self.rows]
    }
}

/// Each tile's part of `slab` (a full-width run of window rows), in tile
/// order. `first` skips the tiles that end above the slab, so slabs must be
/// visited top to bottom; the walk stops at the first tile that starts
/// below the slab.
fn parts<'t>(
    tiles: &'t [Tile<'t>],
    first: &mut usize,
    slab: Rect,
) -> impl Iterator<Item = Part<'t>> {
    while tiles.get(*first).is_some_and(|(r, _)| r.y1() <= slab.y) {
        *first += 1;
    }
    let below = move |(r, _): &&Tile<'t>| r.y < slab.y1();
    tiles[*first..]
        .iter()
        .take_while(below)
        .filter_map(move |(rect, data)| {
            let i = rect.intersect(&slab)?;
            let stride = rect.w as usize * BPP;
            let at = (i.y - rect.y) as usize * stride + (i.x - rect.x) as usize * BPP;
            Some(Part {
                off: (i.x - slab.x) as usize * BPP,
                len: i.w as usize * BPP,
                rows: i.h as usize,
                tile_rows: (rect.y1() - i.y) as usize,
                stride,
                data: &data[at..],
            })
        })
}

/// The parts of successive slabs of a window, each `step` rows below the
/// one before: found once per run of slabs that the same tiles hold whole,
/// and moved down `step` rows for each further slab of the run.
struct SlabParts<'t> {
    tiles: &'t [Tile<'t>],
    step: usize,
    first: usize,
    parts: Vec<Part<'t>>,
    reuse: usize,
}

impl<'t> SlabParts<'t> {
    fn new(tiles: &'t [Tile<'t>], step: usize) -> Self {
        SlabParts {
            tiles,
            step,
            first: 0,
            parts: Vec::new(),
            reuse: 0,
        }
    }

    /// The parts of `slab`, which lies `step` rows below the slab of the
    /// previous call (if any).
    fn of(&mut self, slab: Rect) -> &[Part<'t>] {
        let step = self.step;
        if self.reuse > 0 {
            for p in &mut self.parts {
                p.data = &p.data[step * p.stride..];
            }
            self.reuse -= 1;
        } else {
            self.parts.clear();
            self.parts.extend(parts(self.tiles, &mut self.first, slab));
            // Each tile holds this slab and `(tile_rows - h) / step` more.
            let h = slab.h as usize;
            let more = self
                .parts
                .iter()
                .map(|p| p.tile_rows.saturating_sub(h) / step);
            self.reuse = more.min().unwrap_or(0);
        }
        &self.parts
    }
}

/// Sums each block of `z` pixels of `cols` per channel into one pixel of
/// `out` in an `S`, and maps the sum to its mean with `divide`.
fn reduce_row<T, S>(cols: &[T], out: &mut [u8], z: usize, divide: &impl Fn(S) -> u8)
where
    T: Copy + Into<S>,
    S: Copy + Default + AddAssign,
{
    for (o, block) in out.chunks_exact_mut(BPP).zip(cols.chunks_exact(z * BPP)) {
        let mut sums = [S::default(); BPP];
        for p in block.chunks_exact(BPP) {
            for (s, &c) in sums.iter_mut().zip(p) {
                *s += c.into();
            }
        }
        for (o, s) in o.iter_mut().zip(sums) {
            *o = divide(s);
        }
    }
}

/// Averaging at a zoom other than 2, 4 and 8: per output row, column sums
/// of type `T` (the buffer zero-filled, each tile's rows added, the tiles'
/// parts from [`SlabParts`]), then one horizontal reduction into block sums
/// of type `S`, which `divide` maps to their means.
fn average_rows<T, S>(src: Source<'_>, dst: Dest<'_>, divide: impl Fn(S) -> u8)
where
    T: Copy + Default + AddAssign + From<u8> + Into<S>,
    S: Copy + Default + AddAssign,
{
    let z = src.zoom as usize;
    let out_len = src.win.w as usize / z * BPP;
    let mut cols = vec![T::default(); src.win.w as usize * BPP];
    let mut slabs = SlabParts::new(src.tiles, z);
    for (r, row) in dst.rows.chunks_exact_mut(dst.stride).enumerate() {
        let y = src.win.y + r as u32 * src.zoom;
        let slab = Rect::new(src.win.x, y, src.win.w, src.zoom);
        cols.fill(T::default());
        for p in slabs.of(slab) {
            for k in 0..p.rows {
                let sums = cols[p.off..p.off + p.len].iter_mut();
                for (c, &s) in sums.zip(p.row(k)) {
                    *c += T::from(s);
                }
            }
        }
        let out = &mut row[dst.x_off..dst.x_off + out_len];
        reduce_row::<T, S>(&cols, out, z, &divide);
    }
}

/// Averaging at zoom 2, 4 or 8 on the byte-sum primitives of
/// `vmqs-storage`, which run on the vector unit where the CPU has one:
/// `u16` column sums (at most `255 · 8`) and `u16` block sums (at most
/// `255 · 8²`) shifted by `log2(zoom²)`.
///
/// A slab whose every tile holds all of its rows (every slab of a
/// projection, and all but the slabs that straddle a chunk row) has its
/// column sums written tile by tile in one pass; a straddling slab
/// zero-fills the column buffer and adds each tile's rows into it. Either
/// way the row is then reduced in one call. The tiles' parts come from
/// [`SlabParts`].
fn average_rows_dispatched(src: Source<'_>, dst: Dest<'_>) {
    let z = src.zoom as usize;
    let out_len = src.win.w as usize / z * BPP;
    let mut cols = vec![0u16; src.win.w as usize * BPP];
    let mut rows = [&[][..]; 8];
    let mut slabs = SlabParts::new(src.tiles, z);
    for (r, row) in dst.rows.chunks_exact_mut(dst.stride).enumerate() {
        let y = src.win.y + r as u32 * src.zoom;
        let slab_parts = slabs.of(Rect::new(src.win.x, y, src.win.w, src.zoom));
        if slab_parts.iter().all(|p| p.rows == z) {
            for p in slab_parts {
                vmqs_storage::column_sums(p.rows(&mut rows), &mut cols[p.off..p.off + p.len]);
            }
        } else {
            cols.fill(0);
            for p in slab_parts {
                vmqs_storage::add_column_sums(p.rows(&mut rows), &mut cols[p.off..p.off + p.len]);
            }
        }
        vmqs_storage::block_means(z, &cols, &mut row[dst.x_off..dst.x_off + out_len]);
    }
}

/// Subsampling: every `zoom`-th sample of every `zoom`-th row; a plain row
/// copy at zoom 1. The tiles' parts of each sampled row come from
/// [`SlabParts`].
fn subsample_rows(src: Source<'_>, dst: Dest<'_>) {
    let z = src.zoom as usize;
    let out_len = src.win.w as usize / z * BPP;
    let mut lines = SlabParts::new(src.tiles, z);
    for (r, row) in dst.rows.chunks_exact_mut(dst.stride).enumerate() {
        let y = src.win.y + r as u32 * src.zoom;
        let line = Rect::new(src.win.x, y, src.win.w, 1);
        let out = &mut row[dst.x_off..dst.x_off + out_len];
        for p in lines.of(line) {
            let (off, run) = (p.off, p.row(0));
            if z == 1 {
                out[off..off + run.len()].copy_from_slice(run);
                continue;
            }
            // Sample points sit at window x ≡ 0 (mod zoom); the run may
            // start between two of them.
            let px = off / BPP;
            let skip = (z - px % z) % z;
            let samples = run.as_chunks::<BPP>().0.iter().skip(skip).step_by(z);
            let o = (px + skip) / z * BPP;
            for (d, s) in out[o..].as_chunks_mut::<BPP>().0.iter_mut().zip(samples) {
                *d = *s;
            }
        }
    }
}

/// Renders one band serially.
fn render_rows(src: Source<'_>, dst: Dest<'_>) {
    let n = src.zoom as u64 * src.zoom as u64;
    match (src.op, src.zoom) {
        (VmOp::Average, z) if z > MAX_U16_ZOOM => {
            average_rows::<u32, u64>(src, dst, |s| (s / n) as u8)
        }
        (VmOp::Average, 2 | 4 | 8) => average_rows_dispatched(src, dst),
        (VmOp::Average, z) if z > 1 => {
            // floor(s / n) as a multiply and shift: exact for every
            // s <= 255 n because 255 n² < 2^42 when n <= 257².
            let m = (1u64 << 42) / n + 1;
            average_rows::<u16, u64>(src, dst, |s| ((s * m) >> 42) as u8)
        }
        // The mean of one sample is the sample.
        _ => subsample_rows(src, dst),
    }
}

/// Renders `src` into `dst` in `bands` row bands: the first on the calling
/// thread, the rest on scoped threads. Bands own disjoint rows of the
/// output and every output pixel's samples lie in one band, so the result
/// does not depend on `bands`.
fn render_banded(src: Source<'_>, dst: Dest<'_>, bands: usize) {
    if bands <= 1 {
        return render_rows(src, dst);
    }
    let rows = (src.win.h / src.zoom) as usize;
    let per = rows.div_ceil(bands);
    let (stride, x_off) = (dst.stride, dst.x_off);
    std::thread::scope(|s| {
        let bands = dst.rows.chunks_mut(per * stride).enumerate();
        let mut parts = bands.map(|(i, rows)| {
            let y = src.win.y + (i * per) as u32 * src.zoom;
            let h = (rows.len() / stride) as u32 * src.zoom;
            let win = Rect::new(src.win.x, y, src.win.w, h);
            let dst = Dest {
                rows,
                stride,
                x_off,
            };
            (Source { win, ..src }, dst)
        });
        let own = parts.next();
        for (src, dst) in parts {
            s.spawn(move || render_rows(src, dst));
        }
        if let Some((src, dst)) = own {
            render_rows(src, dst);
        }
    });
}

/// Renders with as many bands as the work is worth, up to `threads`.
fn render(src: Source<'_>, dst: Dest<'_>, threads: usize) {
    let sampled_rows = match src.op {
        VmOp::Subsample => src.win.h / src.zoom,
        VmOp::Average => src.win.h,
    };
    let bytes = src.win.w as usize * sampled_rows as usize * BPP;
    render_banded(src, dst, threads.min(bytes / MIN_BAND_BYTES).max(1));
}

/// Renders `query` from its chunk pages into the block of `out` at `at`,
/// banding across up to `threads` threads. `pages` pairs each chunk's
/// rectangle with its page and must cover the window.
fn render_into(
    out: &mut RgbImage,
    at: (u32, u32),
    query: &VmQuery,
    pages: &[(Rect, Arc<Vec<u8>>)],
    threads: usize,
) {
    let mut tiles: Vec<Tile<'_>> = pages.iter().map(|(r, p)| (*r, p.as_slice())).collect();
    tiles.sort_unstable_by_key(|(r, _)| (r.y, r.x));
    tiles.dedup_by_key(|(r, _)| *r);
    let src = Source {
        tiles: &tiles,
        win: query.region,
        zoom: query.zoom,
        op: query.op,
    };
    render(src, Dest::block(out, at, query.output_dims()), threads);
}

/// Renders `query` into `out`, whose pixel `at` is the query's top-left
/// output pixel (`out` may be the image of a larger query at the same
/// zoom), on the calling thread and one row of chunks at a time: `fetch`
/// is handed each row's chunk indices (one run of consecutive pages) and
/// returns their pages, the output rows whose samples are then all in hand
/// are rendered, and a page is dropped once no later row needs it. However
/// large the window, at most two chunk rows are held, each page is asked
/// for once, and its bytes are consumed while still warm. Returns the
/// number of pages asked for.
pub fn render_streamed<E>(
    out: &mut RgbImage,
    at: (u32, u32),
    query: &VmQuery,
    mut fetch: impl FnMut(&[u64]) -> Result<Vec<Arc<Vec<u8>>>, E>,
) -> Result<u64, E> {
    let (win, zoom, cols) = (query.region, query.zoom, query.slide.chunk_cols() as u64);
    let chunks = query.slide.chunks_intersecting(&win);
    let mut held: Vec<(Rect, Arc<Vec<u8>>)> = Vec::new();
    let mut done = win.y;
    for row in chunks.chunk_by(|a, b| a / cols == b / cols) {
        let rects = row.iter().map(|&idx| query.slide.chunk_rect(idx));
        held.extend(rects.zip(fetch(row)?));
        // Samples are complete down to the last whole zoom block.
        let bottom = query.slide.chunk_rect(row[0]).y1().min(win.y1());
        let upto = win.y + (bottom - win.y) / zoom * zoom;
        if upto > done {
            let region = Rect::new(win.x, done, win.w, upto - done);
            let strip = VmQuery { region, ..*query };
            render_into(out, (at.0, at.1 + (done - win.y) / zoom), &strip, &held, 1);
            done = upto;
            held.retain(|(r, _)| r.y1() > upto);
        }
    }
    Ok(chunks.len() as u64)
}

/// Computes a query's full output from prefetched chunk pages, banding
/// across up to `threads` threads; `pages` pairs each chunk's rectangle
/// with its page and must cover the window.
pub fn compute_from_pages(
    query: &VmQuery,
    pages: &[(Rect, Arc<Vec<u8>>)],
    threads: usize,
) -> RgbImage {
    let (w, h) = query.output_dims();
    let mut out = RgbImage::new(w, h);
    render_into(&mut out, (0, 0), query, pages, threads);
    out
}

/// Computes a query's full output on the calling thread, obtaining each
/// needed chunk's page via `fetch(chunk_index) -> page bytes`.
pub fn compute_from_chunks<F>(query: &VmQuery, mut fetch: F) -> RgbImage
where
    F: FnMut(u64) -> Arc<Vec<u8>>,
{
    let (w, h) = query.output_dims();
    let mut out = RgbImage::new(w, h);
    let pages = |row: &[u64]| Ok(row.iter().map(|&idx| fetch(idx)).collect());
    let Ok(_) = render_streamed::<std::convert::Infallible>(&mut out, (0, 0), query, pages);
    out
}

/// The `project` transformation (Eq. 3): fills the part of `target`'s
/// output derivable from `src_query`'s cached output `src_img`, writing
/// into `out` (the full output image of `target`) and nowhere else.
/// Returns the covered base-resolution rectangle (zoom-aligned to
/// `target`), or `None` when nothing is derivable.
///
/// The cached image is a single tile in its own pixel grid and the zoom
/// ratio is the reduction: subsampling picks every `(target.zoom /
/// src.zoom)`-th cached pixel (a row copy at equal zoom); averaging
/// averages each factor×factor block of cached averages — exact because
/// aligned averaging blocks nest.
pub fn project(
    out: &mut RgbImage,
    target: &VmQuery,
    src_query: &VmQuery,
    src_img: RgbView<'_>,
) -> Option<Rect> {
    project_banded(out, target, src_query, src_img, 1)
}

/// [`project`], banding across up to `threads` threads.
pub fn project_banded(
    out: &mut RgbImage,
    target: &VmQuery,
    src_query: &VmQuery,
    src_img: RgbView<'_>,
    threads: usize,
) -> Option<Rect> {
    let cov = src_query.aligned_coverage(target)?;
    let (tz, sz) = (target.zoom, src_query.zoom);
    debug_assert_eq!((src_img.width, src_img.height), src_query.output_dims());
    let src = Source {
        tiles: &[(Rect::new(0, 0, src_img.width, src_img.height), src_img.data)],
        win: Rect::new(
            (cov.x - src_query.region.x) / sz,
            (cov.y - src_query.region.y) / sz,
            cov.w / sz,
            cov.h / sz,
        ),
        zoom: tz / sz,
        op: target.op,
    };
    let at = (
        (cov.x - target.region.x) / tz,
        (cov.y - target.region.y) / tz,
    );
    render(src, Dest::block(out, at, (cov.w / tz, cov.h / tz)), threads);
    Some(cov)
}

/// Reference renderer: computes `query`'s output directly from the
/// synthetic ground-truth pixel function, bypassing chunks, pages, and
/// caches. The oracle for every execution-path test.
pub fn reference_render(query: &VmQuery) -> RgbImage {
    let (w, h) = query.output_dims();
    let z = query.zoom;
    let mut img = RgbImage::new(w, h);
    for oy in 0..h {
        for ox in 0..w {
            let bx = query.region.x + ox * z;
            let by = query.region.y + oy * z;
            let px = match query.op {
                VmOp::Subsample => query.slide.synthetic_pixel(bx, by),
                VmOp::Average => {
                    let mut sums = [0u64; 3];
                    for dy in 0..z {
                        for dx in 0..z {
                            let p = query.slide.synthetic_pixel(bx + dx, by + dy);
                            for (s, v) in sums.iter_mut().zip(p) {
                                *s += v as u64;
                            }
                        }
                    }
                    let n = (z * z) as u64;
                    sums.map(|s| (s / n) as u8)
                }
            };
            img.set(ox, oy, px);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{SlideDataset, CHUNK_SIDE, PAGE_SIZE};
    use proptest::prelude::*;
    use vmqs_core::DatasetId;
    use vmqs_storage::{DataSource, SyntheticSource};

    fn slide() -> SlideDataset {
        SlideDataset::new(DatasetId(0), 600, 600)
    }

    fn fetch_real(q: &VmQuery) -> impl FnMut(u64) -> Arc<Vec<u8>> + '_ {
        let src = SyntheticSource::new();
        let id = q.slide.id;
        move |idx| Arc::new(src.read_page(id, idx, PAGE_SIZE).unwrap())
    }

    fn pages_for(q: &VmQuery) -> Vec<(Rect, Arc<Vec<u8>>)> {
        let mut fetch = fetch_real(q);
        q.slide
            .chunks_intersecting(&q.region)
            .into_iter()
            .map(|idx| (q.slide.chunk_rect(idx), fetch(idx)))
            .collect()
    }

    /// Renders `q` at `at` inside `out` in exactly `bands` bands (the
    /// public entry points let the amount of work decide).
    fn render_with_bands(out: &mut RgbImage, at: (u32, u32), q: &VmQuery, bands: usize) {
        let pages = pages_for(q);
        let tiles: Vec<Tile<'_>> = pages.iter().map(|(r, p)| (*r, p.as_slice())).collect();
        let src = Source {
            tiles: &tiles,
            win: q.region,
            zoom: q.zoom,
            op: q.op,
        };
        render_banded(src, Dest::block(out, at, q.output_dims()), bands);
    }

    /// Renders `q` with every chunk page cut into one-row tiles, so that no
    /// tile holds a whole slab and every averaging slab takes the
    /// fill-and-add path.
    fn render_per_row(q: &VmQuery) -> RgbImage {
        let pages = pages_for(q);
        let mut tiles: Vec<Tile<'_>> = Vec::new();
        for (rect, page) in &pages {
            let row = rect.w as usize * BPP;
            for (dy, data) in page[..rect.h as usize * row].chunks_exact(row).enumerate() {
                tiles.push((Rect::new(rect.x, rect.y + dy as u32, rect.w, 1), data));
            }
        }
        tiles.sort_unstable_by_key(|(r, _)| (r.y, r.x));
        let src = Source {
            tiles: &tiles,
            win: q.region,
            zoom: q.zoom,
            op: q.op,
        };
        let (w, h) = q.output_dims();
        let mut out = RgbImage::new(w, h);
        render_rows(src, Dest::block(&mut out, (0, 0), (w, h)));
        out
    }

    /// Whether some averaging slab of `q` straddles a chunk row boundary.
    fn straddles(q: &VmQuery) -> bool {
        let (y, y1) = (q.region.y, q.region.y1());
        (1..=q.slide.chunk_rows())
            .map(|r| r * CHUNK_SIDE)
            .any(|b| y < b && b < y1 && !(b - y).is_multiple_of(q.zoom))
    }

    #[test]
    fn slabs_straddling_a_chunk_row_match_reference_and_the_per_row_path() {
        // 147 is no multiple of 2, 4, 5 or 8, so their windows below have
        // slabs that straddle a chunk row (at 2, 4 and 8 next to slabs
        // summed in one pass); it is a multiple of 3, whose slabs never
        // straddle.
        let s = SlideDataset::new(DatasetId(3), 512, 512);
        for zoom in [2u32, 3, 4, 5, 8] {
            // Output pixels a side; the window's top-left corner lies
            // within two slabs above and left of the first chunk corner.
            let start = (CHUNK_SIDE / zoom - 1) * zoom;
            let side = if cfg!(miri) {
                3
            } else {
                ((512 - start) / zoom).min(60)
            };
            let rect = Rect::new(start, start, side * zoom, side * zoom);
            let q = VmQuery::new(s, rect, zoom, VmOp::Average);
            assert_eq!(q.output_dims(), (side, side));
            assert_eq!(straddles(&q), !CHUNK_SIDE.is_multiple_of(zoom), "{q:?}");
            let want = reference_render(&q);
            assert_eq!(render_per_row(&q), want, "per-row path, {q:?}");
            assert_eq!(compute_from_pages(&q, &pages_for(&q), 1), want, "{q:?}");
            assert_eq!(compute_from_chunks(&q, fetch_real(&q)), want, "{q:?}");
        }
    }

    #[test]
    fn vectorised_averaging_matches_reference_with_boundaries_mid_vector() {
        // The byte-sum primitives step 64 columns (sample bytes) at a
        // time. Each window starts at an x that puts every chunk column
        // boundary it crosses (147, 294) off a 64-byte step, so tiles end
        // and blocks straddle tiles mid-vector, and two slabs above
        // y = 147, so one slab straddles the chunk row. Then a projection
        // of a cached average at the same odd offsets.
        let s = SlideDataset::new(DatasetId(5), 512, 512);
        for zoom in [2u32, 4, 8] {
            // The window starts `j` output pixels left of the first chunk
            // column boundary.
            for j in [1u32, 5, 11] {
                let x = (CHUNK_SIDE / zoom - j) * zoom;
                let w = if cfg!(miri) {
                    j + 2
                } else {
                    (300 - x) / zoom + 1
                };
                let h = if cfg!(miri) { 3 } else { 7 };
                let rect = Rect::new(x, (147 / zoom - 2) * zoom, w * zoom, h * zoom);
                let crossed: Vec<u32> = [147, 294]
                    .into_iter()
                    .filter(|&b| rect.x < b && b < rect.x1())
                    .collect();
                assert!(!crossed.is_empty(), "{rect:?}");
                assert!(
                    crossed.iter().all(|b| !((b - x) * 3).is_multiple_of(64)),
                    "{rect:?}"
                );
                let q = VmQuery::new(s, rect, zoom, VmOp::Average);
                assert!(straddles(&q), "{q:?}");
                let want = reference_render(&q);
                assert_eq!(compute_from_pages(&q, &pages_for(&q), 1), want, "{q:?}");
                assert_eq!(compute_from_chunks(&q, fetch_real(&q)), want, "{q:?}");
                assert_eq!(render_per_row(&q), want, "per-row path, {q:?}");
            }
        }
        let side = if cfg!(miri) { 48 } else { 296 };
        let cached = VmQuery::new(s, Rect::new(26, 50, side, side), 2, VmOp::Average);
        let img = compute_from_chunks(&cached, fetch_real(&cached));
        for zoom in [4u32, 8] {
            let target = VmQuery::new(s, Rect::new(24, 48, 320, 320), zoom, VmOp::Average);
            let (w, h) = target.output_dims();
            let mut want = RgbImage::new(w, h);
            want.data.fill(0xAB);
            let mut got = want.clone();
            let cov = project_per_pixel(&mut want, &target, &cached, img.view());
            assert!(cov.is_some(), "zoom {zoom}");
            assert_eq!(project(&mut got, &target, &cached, img.view()), cov);
            assert_eq!(got, want, "zoom {zoom}");
        }
    }

    #[test]
    fn slab_sums_reach_the_71_pixel_edge_chunks() {
        // The last chunk row and column of a 512² slide start at 441 and
        // are 71 pixels wide: windows from one slab before them to the
        // slide's far edge.
        let s = SlideDataset::new(DatasetId(3), 512, 512);
        for zoom in [2u32, 4, 5, 8] {
            let start = (441 / zoom - 1) * zoom;
            let side = if cfg!(miri) { 3 } else { (512 - start) / zoom };
            let rect = Rect::new(start, start, side * zoom, side * zoom);
            let q = VmQuery::new(s, rect, zoom, VmOp::Average);
            assert!(q.region.x < 441 && q.region.x1() > 441, "{q:?}");
            let want = reference_render(&q);
            assert_eq!(render_per_row(&q), want, "per-row path, {q:?}");
            assert_eq!(compute_from_chunks(&q, fetch_real(&q)), want, "{q:?}");
        }
    }

    #[test]
    fn averaging_projection_by_slab_sums_matches_the_per_row_path() {
        // A cached zoom-2 image is one tile that holds every slab whole,
        // so projection sums every slab in one pass. Cut into one-row
        // tiles, the same image takes the fill-and-add path.
        let s = slide();
        let side = if cfg!(miri) { 16 } else { 400 };
        let cached = VmQuery::new(s, Rect::new(0, 0, side, side), 2, VmOp::Average);
        let img = compute_from_chunks(&cached, fetch_real(&cached));
        for factor in [2u32, 4] {
            let target = VmQuery::new(s, cached.region, 2 * factor, VmOp::Average);
            let (w, h) = target.output_dims();
            let mut want = RgbImage::new(w, h);
            project_per_pixel(&mut want, &target, &cached, img.view());
            let mut got = RgbImage::new(w, h);
            assert_eq!(
                project(&mut got, &target, &cached, img.view()),
                Some(target.region)
            );
            assert_eq!(got, want, "factor {factor}");
            let row = img.width as usize * BPP;
            let tiles: Vec<Tile<'_>> = (0..img.height)
                .zip(img.data.chunks_exact(row))
                .map(|(y, data)| (Rect::new(0, y, img.width, 1), data))
                .collect();
            let src = Source {
                tiles: &tiles,
                win: Rect::new(0, 0, img.width, img.height),
                zoom: factor,
                op: VmOp::Average,
            };
            let mut per_row = RgbImage::new(w, h);
            render_rows(src, Dest::block(&mut per_row, (0, 0), (w, h)));
            assert_eq!(per_row, want, "per-row path, factor {factor}");
        }
    }

    /// `project` as it was before the streaming renderer: one `get`, one
    /// `set` and three divisions per output pixel. The oracle for the
    /// projection tests.
    fn project_per_pixel(
        out: &mut RgbImage,
        target: &VmQuery,
        src_query: &VmQuery,
        src_img: RgbView<'_>,
    ) -> Option<Rect> {
        let coverage = src_query.aligned_coverage(target)?;
        let (tz, sz) = (target.zoom, src_query.zoom);
        let factor = tz / sz;
        for by in (coverage.y..coverage.y1()).step_by(tz as usize) {
            let oy = (by - target.region.y) / tz;
            let sy0 = (by - src_query.region.y) / sz;
            for bx in (coverage.x..coverage.x1()).step_by(tz as usize) {
                let ox = (bx - target.region.x) / tz;
                let sx0 = (bx - src_query.region.x) / sz;
                let px = match target.op {
                    VmOp::Subsample => src_img.get(sx0, sy0),
                    VmOp::Average => {
                        let mut sums = [0u64; 3];
                        for dy in 0..factor {
                            for dx in 0..factor {
                                let p = src_img.get(sx0 + dx, sy0 + dy);
                                for c in 0..3 {
                                    sums[c] += p[c] as u64;
                                }
                            }
                        }
                        let n = (factor * factor) as u64;
                        sums.map(|s| (s / n) as u8)
                    }
                };
                out.set(ox, oy, px);
            }
        }
        Some(coverage)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 96 }))]

        // The renderer equals the ground truth for arbitrary aligned
        // windows: every zoom class (1, powers of two, odd, the largest
        // that still fits the slide), both ops, windows that straddle
        // chunk boundaries and reach the 71-pixel-wide edge chunks of a
        // 512² slide.
        #[test]
        fn renderer_matches_reference(
            zi in 0usize..9,
            subsample in prop::bool::ANY,
            fx in 0u32..1000, fy in 0u32..1000,
            fw in 0u32..1000, fh in 0u32..1000,
        ) {
            let zoom = [1u32, 2, 3, 4, 5, 8, 16, 64, 256][zi];
            let slide = SlideDataset::new(DatasetId(3), 512, 512);
            let op = if subsample { VmOp::Subsample } else { VmOp::Average };
            // Output-pixel coordinates; small outputs keep the reference
            // (and miri) fast while large zooms still span every chunk.
            let side = 512 / zoom;
            let cap = if cfg!(miri) { 4 } else { 40 };
            let w = 1 + fw % side.min(cap);
            let h = 1 + fh % side.min(cap);
            let x = fx % (side - w + 1);
            let y = fy % (side - h + 1);
            let q = VmQuery::new(slide, Rect::new(x * zoom, y * zoom, w * zoom, h * zoom), zoom, op);
            prop_assert_eq!(q.output_dims(), (w, h));
            let want = reference_render(&q);
            prop_assert_eq!(&compute_from_chunks(&q, fetch_real(&q)), &want);
            prop_assert_eq!(&compute_from_pages(&q, &pages_for(&q), 4), &want);
        }
    }

    #[test]
    fn windows_on_the_edge_chunks_match_reference() {
        // The last chunk column/row of a 512² slide is 71 pixels wide, so
        // its rows are shorter than a full chunk's.
        let s = SlideDataset::new(DatasetId(3), 512, 512);
        for (rect, zoom) in [
            (Rect::new(400, 400, 112, 112), 1),
            (Rect::new(432, 288, 80, 224), 4),
            (Rect::new(0, 0, 512, 512), 256),
            (Rect::new(420, 435, 90, 75), 3),
        ] {
            for op in [VmOp::Subsample, VmOp::Average] {
                let q = VmQuery::new(s, rect, zoom, op);
                assert!(q.region.x1().max(q.region.y1()) > 441, "{q:?}");
                assert_eq!(
                    compute_from_chunks(&q, fetch_real(&q)),
                    reference_render(&q),
                    "{q:?}"
                );
            }
        }
    }

    #[test]
    fn subsampled_rows_match_reference_across_chunk_rows_and_columns() {
        // At every zoom from 1 to 8, a window from two sampled rows above
        // the first chunk row to below the second, and from three samples
        // left of the first chunk column to right of the second: runs of
        // sampled rows that one chunk row holds, the rows on either side
        // of each boundary, and row runs that start between two sample
        // points (147 and 294 are multiples of 1, 3 and 7 only). Cut into
        // one-row tiles, every sampled row starts a run of its own.
        let s = SlideDataset::new(DatasetId(4), 512, 512);
        for zoom in 1u32..=8 {
            let (x, y) = (
                (CHUNK_SIDE / zoom - 3) * zoom,
                (CHUNK_SIDE / zoom - 2) * zoom,
            );
            let (w, h) = if cfg!(miri) {
                (4, 3)
            } else {
                ((300 - x) / zoom + 1, (300 - y) / zoom + 1)
            };
            let q = VmQuery::new(
                s,
                Rect::new(x, y, w * zoom, h * zoom),
                zoom,
                VmOp::Subsample,
            );
            assert!(
                q.region.y < CHUNK_SIDE && q.region.y1() > CHUNK_SIDE,
                "{q:?}"
            );
            let want = reference_render(&q);
            assert_eq!(compute_from_pages(&q, &pages_for(&q), 1), want, "{q:?}");
            assert_eq!(compute_from_chunks(&q, fetch_real(&q)), want, "{q:?}");
            assert_eq!(render_per_row(&q), want, "per-row path, {q:?}");
        }
    }

    #[test]
    fn subsample_zoom1_is_identity_crop() {
        let q = VmQuery::new(slide(), Rect::new(140, 140, 16, 16), 1, VmOp::Subsample);
        let got = compute_from_chunks(&q, fetch_real(&q));
        assert_eq!(got, reference_render(&q));
        assert_eq!(got.get(0, 0), q.slide.synthetic_pixel(140, 140));
    }

    #[test]
    fn banded_render_matches_serial_byte_for_byte() {
        // Output heights chosen to exercise uneven band splits and chunk
        // boundaries; both ops; rendered at an offset inside a larger
        // sentinel-filled image so a band writing outside its block shows.
        for (rect, zoom, op) in [
            (Rect::new(0, 0, 400, 280), 2, VmOp::Subsample),
            (Rect::new(100, 100, 480, 400), 4, VmOp::Average),
            (Rect::new(8, 16, 160, 520), 1, VmOp::Subsample),
            (Rect::new(0, 0, 256, 264), 2, VmOp::Average),
            (Rect::new(0, 0, 96, 15), 3, VmOp::Average),
        ] {
            let q = VmQuery::new(slide(), rect, zoom, op);
            let (w, h) = q.output_dims();
            let mut serial = RgbImage::new(w + 5, h + 3);
            serial.data.fill(0xAB);
            let blank = serial.clone();
            render_with_bands(&mut serial, (2, 1), &q, 1);
            let mut inner = RgbImage::new(w, h);
            inner.blit(0, 0, &serial, 2, 1, w, h);
            assert_eq!(inner, reference_render(&q), "{q:?}");
            let mut framed = blank.clone();
            framed.blit(2, 1, &inner, 0, 0, w, h);
            assert_eq!(framed, serial, "serial render left its block: {q:?}");
            for bands in [2, 3, 4, 7] {
                let mut par = blank.clone();
                render_with_bands(&mut par, (2, 1), &q, bands);
                assert_eq!(par, serial, "bands {bands} {q:?}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "renders 12 MiB of samples")]
    fn public_entry_points_agree_whatever_the_band_count() {
        // 24 KiB of samples is below the banding threshold, 12 MiB is six
        // bands' worth: the answer is the same either way.
        let big = SlideDataset::new(DatasetId(0), 2048, 2048);
        for (s, rect) in [
            (slide(), Rect::new(0, 0, 128, 64)),
            (big, Rect::new(0, 0, 2048, 2048)),
        ] {
            let q = VmQuery::new(s, rect, 64, VmOp::Average);
            let pages = pages_for(&q);
            assert_eq!(compute_from_pages(&q, &pages, 8), reference_render(&q));
        }
    }

    #[test]
    fn streamed_render_asks_for_each_page_once_and_holds_two_chunk_rows() {
        // Four chunk rows of four chunks; 147 is no multiple of the zoom,
        // so every chunk boundary cuts through an averaging block and the
        // row above it has to be carried into the next strip.
        let q = VmQuery::new(slide(), Rect::new(100, 100, 480, 480), 4, VmOp::Average);
        let (w, h) = q.output_dims();
        let mut out = RgbImage::new(w + 3, h + 2);
        out.data.fill(0xAB);
        let mut want = out.clone();
        want.blit(3, 2, &reference_render(&q), 0, 0, w, h);
        let mut real = fetch_real(&q);
        let mut asked = Vec::new();
        let mut handed = Vec::new();
        let fetch = |row: &[u64]| {
            assert!(row.windows(2).all(|p| p[0] + 1 == p[1]), "one run: {row:?}");
            let held = handed
                .iter()
                .filter(|p: &&std::sync::Weak<_>| p.strong_count() > 0);
            assert!(
                held.count() <= row.len(),
                "only the row above is still held"
            );
            asked.extend_from_slice(row);
            let pages: Vec<_> = row.iter().map(|&idx| real(idx)).collect();
            handed.extend(pages.iter().map(Arc::downgrade));
            Ok::<_, ()>(pages)
        };
        assert_eq!(render_streamed(&mut out, (3, 2), &q, fetch), Ok(16));
        assert_eq!(asked, q.slide.chunks_intersecting(&q.region));
        assert_eq!(out, want);
        // A failed fetch ends the render with its error.
        let mut calls = 0;
        let failing = |row: &[u64]| {
            calls += 1;
            if calls == 3 {
                return Err("bad sector");
            }
            Ok(row.iter().map(|_| Arc::new(vec![0; PAGE_SIZE])).collect())
        };
        assert_eq!(
            render_streamed(&mut out, (3, 2), &q, failing),
            Err("bad sector")
        );
        assert_eq!(calls, 3);
    }

    #[test]
    fn accumulator_width_switches_without_overflow() {
        // All-0xFF pages make every column sum 255·zoom: 65 535 at zoom
        // 257, the last that fits a u16 (a debug build would panic on the
        // add, a release build would wrap), and 65 790 at 258, the first
        // that needs the u32 path.
        let white = Arc::new(vec![0xFFu8; PAGE_SIZE]);
        for zoom in [MAX_U16_ZOOM, MAX_U16_ZOOM + 1] {
            let q = VmQuery::new(
                slide(),
                Rect::new(0, 0, 2 * zoom, zoom),
                zoom,
                VmOp::Average,
            );
            let pages: Vec<_> = q
                .slide
                .chunks_intersecting(&q.region)
                .into_iter()
                .map(|idx| (q.slide.chunk_rect(idx), Arc::clone(&white)))
                .collect();
            let got = compute_from_pages(&q, &pages, 1);
            assert_eq!(got.data, vec![0xFF; 6], "zoom {zoom}");
        }
        assert_eq!(MAX_U16_ZOOM, 257);
    }

    #[test]
    fn project_matches_the_per_pixel_oracle_and_preserves_outside_pixels() {
        let s = slide();
        for op in [VmOp::Subsample, VmOp::Average] {
            let cached = VmQuery::new(s, Rect::new(0, 0, 400, 400), 2, op);
            let cached_img = compute_from_chunks(&cached, fetch_real(&cached));
            // Same zoom, factor 2, factor 4; the coverage is a strict
            // sub-rectangle of each target's output.
            for zoom in [2, 4, 8] {
                let target = VmQuery::new(s, Rect::new(200, 104, 400, 480), zoom, op);
                let (w, h) = target.output_dims();
                // Pre-fill with a sentinel so clobbering outside coverage shows.
                let mut want = RgbImage::new(w, h);
                want.data.fill(0xAB);
                let mut serial = want.clone();
                let mut banded = want.clone();
                let cov = project_per_pixel(&mut want, &target, &cached, cached_img.view());
                assert_eq!(cov, Some(Rect::new(200, 104, 200, 296)));
                assert_eq!(
                    project(&mut serial, &target, &cached, cached_img.view()),
                    cov
                );
                assert_eq!(serial, want, "op {op:?} zoom {zoom}");
                assert_eq!(
                    project_banded(&mut banded, &target, &cached, cached_img.view(), 4),
                    cov
                );
                assert_eq!(banded, want, "banded, op {op:?} zoom {zoom}");
            }
        }
    }

    #[test]
    fn project_subsample_zoom_change_matches_reference() {
        let s = slide();
        let cached = VmQuery::new(s, Rect::new(0, 0, 400, 400), 2, VmOp::Subsample);
        let cached_img = compute_from_chunks(&cached, fetch_real(&cached));
        let target = VmQuery::new(s, Rect::new(0, 0, 400, 400), 8, VmOp::Subsample);
        let (w, h) = target.output_dims();
        let mut out = RgbImage::new(w, h);
        let cov = project(&mut out, &target, &cached, cached_img.view()).unwrap();
        assert_eq!(cov, target.region);
        assert_eq!(out, reference_render(&target));
    }

    #[test]
    fn project_average_zoom_change_matches_direct_computation_closely() {
        let s = slide();
        let cached = VmQuery::new(s, Rect::new(0, 0, 160, 160), 2, VmOp::Average);
        let cached_img = compute_from_chunks(&cached, fetch_real(&cached));
        let target = VmQuery::new(s, Rect::new(0, 0, 160, 160), 8, VmOp::Average);
        let (w, h) = target.output_dims();
        let mut out = RgbImage::new(w, h);
        project(&mut out, &target, &cached, cached_img.view()).unwrap();
        // Averaging averages re-quantizes (integer division at each level),
        // so allow ±4 per channel against the direct render.
        let direct = reference_render(&target);
        for (a, b) in out.data.iter().zip(&direct.data) {
            assert!((*a as i32 - *b as i32).abs() <= 4, "{a} vs {b}");
        }
    }

    #[test]
    fn project_incompatible_returns_none() {
        let s = slide();
        let cached = VmQuery::new(s, Rect::new(0, 0, 100, 100), 4, VmOp::Subsample);
        let cached_img = RgbImage::new(25, 25);
        let target = VmQuery::new(s, Rect::new(0, 0, 100, 100), 2, VmOp::Subsample);
        let mut out = RgbImage::new(50, 50);
        assert!(project(&mut out, &target, &cached, cached_img.view()).is_none());
    }

    #[test]
    fn project_plus_subqueries_reconstruct_full_output() {
        // End-to-end partial-reuse path: project what the cache covers,
        // render sub-queries for the rest straight into the same image,
        // and verify it equals a from-scratch render.
        let s = slide();
        let cached = VmQuery::new(s, Rect::new(0, 0, 200, 400), 2, VmOp::Subsample);
        let cached_img = compute_from_chunks(&cached, fetch_real(&cached));
        let target = VmQuery::new(s, Rect::new(100, 0, 300, 400), 2, VmOp::Subsample);
        let (w, h) = target.output_dims();
        let mut out = RgbImage::new(w, h);
        let cov = project(&mut out, &target, &cached, cached_img.view()).unwrap();
        assert_eq!(cov, Rect::new(100, 0, 100, 400));
        for sub in target.subqueries_for_remainder(&[cov]) {
            let at = (
                (sub.region.x - target.region.x) / target.zoom,
                (sub.region.y - target.region.y) / target.zoom,
            );
            render_into(&mut out, at, &sub, &pages_for(&sub), 1);
        }
        assert_eq!(out, reference_render(&target));
    }
}
