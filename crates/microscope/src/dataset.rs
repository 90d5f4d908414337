//! Slide datasets and their on-disk chunk layout.
//!
//! Raw Virtual Microscope input is a 2-D digitized slide stored at the
//! highest magnification, regularly partitioned into rectangular chunks for
//! I/O bandwidth (paper §3). Following the evaluation setup, each chunk is
//! a square region of 3-byte RGB pixels stored in one 64 KB page; a
//! 30000×30000 slide therefore occupies ≈2.5 GB across ~42k pages.

use vmqs_core::{DatasetId, Rect};
use vmqs_storage::{DataSource, SyntheticSource};

/// Bytes per pixel (RGB).
pub const BYTES_PER_PIXEL: u32 = 3;
/// Page size used for storage, per the paper's setup (64 KB).
pub const PAGE_SIZE: usize = 65536;
/// Chunk side length in pixels: the largest square of 3-byte pixels that
/// fits in one 64 KB page (147·147·3 = 64 827 ≤ 65 536).
pub const CHUNK_SIDE: u32 = 147;

/// One digitized slide: dimensions plus derived chunk-grid layout.
///
/// Chunks are indexed row-major; chunk index equals the page index of the
/// page holding it, so the Page Space Manager addresses chunks directly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlideDataset {
    /// Dataset identity.
    pub id: DatasetId,
    /// Slide width in pixels at base magnification.
    pub width: u32,
    /// Slide height in pixels at base magnification.
    pub height: u32,
}

impl SlideDataset {
    /// Creates a dataset descriptor. Panics on zero dimensions.
    pub fn new(id: DatasetId, width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "degenerate slide dimensions");
        SlideDataset { id, width, height }
    }

    /// The paper's evaluation slides: 30000×30000 3-byte pixels (≈2.5 GB
    /// each; three of them make the 7.5 GB corpus).
    pub fn paper_scale(id: DatasetId) -> Self {
        SlideDataset::new(id, 30_000, 30_000)
    }

    /// Chunk-grid columns.
    #[inline]
    pub fn chunk_cols(&self) -> u32 {
        self.width.div_ceil(CHUNK_SIDE)
    }

    /// Chunk-grid rows.
    #[inline]
    pub fn chunk_rows(&self) -> u32 {
        self.height.div_ceil(CHUNK_SIDE)
    }

    /// Total chunks (= pages) in the dataset.
    #[inline]
    pub fn chunk_count(&self) -> u64 {
        self.chunk_cols() as u64 * self.chunk_rows() as u64
    }

    /// Total stored bytes (pages × page size).
    pub fn stored_bytes(&self) -> u64 {
        self.chunk_count() * PAGE_SIZE as u64
    }

    /// The full-slide rectangle.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// The pixel region covered by chunk `index` (clipped at the slide's
    /// right/bottom edges).
    pub fn chunk_rect(&self, index: u64) -> Rect {
        let cols = self.chunk_cols() as u64;
        debug_assert!(index < self.chunk_count(), "chunk index out of range");
        let row = (index / cols) as u32;
        let col = (index % cols) as u32;
        let x = col * CHUNK_SIDE;
        let y = row * CHUNK_SIDE;
        Rect::new(
            x,
            y,
            CHUNK_SIDE.min(self.width - x),
            CHUNK_SIDE.min(self.height - y),
        )
    }

    /// Chunk index containing pixel `(x, y)`.
    pub fn chunk_at(&self, x: u32, y: u32) -> u64 {
        debug_assert!(x < self.width && y < self.height);
        let col = (x / CHUNK_SIDE) as u64;
        let row = (y / CHUNK_SIDE) as u64;
        row * self.chunk_cols() as u64 + col
    }

    /// Indices of all chunks intersecting `region` (clipped to the slide),
    /// in row-major order — the I/O set of a query.
    pub fn chunks_intersecting(&self, region: &Rect) -> Vec<u64> {
        let clipped = match region.intersect(&self.bounds()) {
            Some(c) => c,
            None => return Vec::new(),
        };
        let c0 = clipped.x / CHUNK_SIDE;
        let c1 = (clipped.x1() - 1) / CHUNK_SIDE;
        let r0 = clipped.y / CHUNK_SIDE;
        let r1 = (clipped.y1() - 1) / CHUNK_SIDE;
        let cols = self.chunk_cols() as u64;
        let mut out = Vec::with_capacity(((r1 - r0 + 1) * (c1 - c0 + 1)) as usize);
        for r in r0..=r1 {
            for c in c0..=c1 {
                out.push(r as u64 * cols + c as u64);
            }
        }
        out
    }

    /// `qinputsize` for a region: total bytes of the chunks intersecting it
    /// (paper §4, SJF: "the total size of the data chunks that intersect
    /// the query window").
    pub fn input_bytes(&self, region: &Rect) -> u64 {
        self.chunks_intersecting(region).len() as u64 * PAGE_SIZE as u64
    }

    /// Byte offset of pixel `(x, y)` within its chunk's page (pixels are
    /// row-major within the chunk, 3 bytes each).
    pub fn offset_in_chunk(&self, x: u32, y: u32) -> usize {
        let chunk = self.chunk_rect(self.chunk_at(x, y));
        ((y - chunk.y) as usize * chunk.w as usize + (x - chunk.x) as usize)
            * BYTES_PER_PIXEL as usize
    }

    /// Ground-truth pixel value of the deterministic synthetic slide: what
    /// [`vmqs_storage::SyntheticSource`] stores for pixel `(x, y)`. Lets
    /// tests and examples verify full execution paths byte-for-byte.
    pub fn synthetic_pixel(&self, x: u32, y: u32) -> [u8; 3] {
        let page = self.chunk_at(x, y);
        let base = self.offset_in_chunk(x, y) as u64;
        [
            SyntheticSource::byte_at(self.id, page, base),
            SyntheticSource::byte_at(self.id, page, base + 1),
            SyntheticSource::byte_at(self.id, page, base + 2),
        ]
    }

    /// Reads one pixel through a [`DataSource`] (test/diagnostic helper —
    /// real execution goes through the Page Space Manager).
    pub fn read_pixel<D: DataSource>(
        &self,
        source: &D,
        x: u32,
        y: u32,
    ) -> std::io::Result<[u8; 3]> {
        let page = source.read_page(self.id, self.chunk_at(x, y), PAGE_SIZE)?;
        let off = self.offset_in_chunk(x, y);
        Ok([page[off], page[off + 1], page[off + 2]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slide() -> SlideDataset {
        SlideDataset::new(DatasetId(0), 1000, 500)
    }

    #[test]
    fn chunk_grid_dimensions() {
        let s = slide();
        assert_eq!(s.chunk_cols(), 7); // ceil(1000/147)
        assert_eq!(s.chunk_rows(), 4); // ceil(500/147)
        assert_eq!(s.chunk_count(), 28);
        assert_eq!(s.stored_bytes(), 28 * 65536);
    }

    #[test]
    fn paper_scale_matches_evaluation_setup() {
        let s = SlideDataset::paper_scale(DatasetId(1));
        // 30000x30000 3-byte pixels = 2.7e9 bytes raw; ceil(30000/147)=205
        assert_eq!(s.chunk_cols(), 205);
        assert_eq!(s.chunk_count(), 205 * 205);
        // Three datasets ≈ 7.5 GB of storage, as in the paper.
        assert!(3 * s.stored_bytes() > 7_500_000_000);
        assert!(3 * s.stored_bytes() < 8_800_000_000);
    }

    #[test]
    fn chunk_rect_clips_at_edges() {
        let s = slide();
        let first = s.chunk_rect(0);
        assert_eq!(first, Rect::new(0, 0, 147, 147));
        // Last column clipped: 6*147 = 882, width 1000-882 = 118.
        let last_col = s.chunk_rect(6);
        assert_eq!(last_col, Rect::new(882, 0, 118, 147));
        // Last row clipped: 3*147 = 441, height 500-441 = 59.
        let last = s.chunk_rect(27);
        assert_eq!(last, Rect::new(882, 441, 118, 59));
    }

    #[test]
    fn chunk_at_inverts_chunk_rect() {
        let s = slide();
        for idx in [0u64, 5, 13, 27] {
            let r = s.chunk_rect(idx);
            assert_eq!(s.chunk_at(r.x, r.y), idx);
            assert_eq!(s.chunk_at(r.x1() - 1, r.y1() - 1), idx);
        }
    }

    #[test]
    fn chunks_intersecting_single_chunk() {
        let s = slide();
        assert_eq!(s.chunks_intersecting(&Rect::new(10, 10, 20, 20)), vec![0]);
    }

    #[test]
    fn chunks_intersecting_straddles_boundaries() {
        let s = slide();
        // Crosses the chunk boundary at x = 147.
        let ids = s.chunks_intersecting(&Rect::new(140, 0, 20, 20));
        assert_eq!(ids, vec![0, 1]);
        // 2x2 block of chunks.
        let ids = s.chunks_intersecting(&Rect::new(140, 140, 20, 20));
        assert_eq!(ids, vec![0, 1, 7, 8]);
    }

    #[test]
    fn chunks_intersecting_out_of_bounds_clips() {
        let s = slide();
        assert!(s
            .chunks_intersecting(&Rect::new(2000, 2000, 10, 10))
            .is_empty());
        // Region overhanging the right edge only touches last-column chunks.
        let ids = s.chunks_intersecting(&Rect::new(950, 0, 500, 10));
        assert_eq!(ids, vec![6]);
    }

    #[test]
    fn input_bytes_counts_whole_chunks() {
        let s = slide();
        assert_eq!(s.input_bytes(&Rect::new(0, 0, 1, 1)), 65536);
        assert_eq!(s.input_bytes(&Rect::new(140, 140, 20, 20)), 4 * 65536);
    }

    #[test]
    fn synthetic_pixel_matches_data_source() {
        let s = slide();
        let src = SyntheticSource::new();
        for &(x, y) in &[(0, 0), (146, 146), (147, 0), (999, 499), (500, 250)] {
            assert_eq!(
                s.synthetic_pixel(x, y),
                s.read_pixel(&src, x, y).unwrap(),
                "pixel ({x},{y})"
            );
        }
    }

    /// A window shifted by one pixel must not render the same bytes: over
    /// a full chunk, neighbouring pixels differ almost everywhere.
    #[test]
    fn synthetic_pixel_differs_from_its_right_and_lower_neighbour() {
        let s = slide();
        let side = CHUNK_SIDE - 1;
        let (mut right, mut below) = (0, 0);
        for y in 0..side {
            for x in 0..side {
                let p = s.synthetic_pixel(x, y);
                right += usize::from(p != s.synthetic_pixel(x + 1, y));
                below += usize::from(p != s.synthetic_pixel(x, y + 1));
            }
        }
        let pairs = (side * side) as usize;
        assert!(
            right * 100 > pairs * 99,
            "{right} of {pairs} differ to the right"
        );
        assert!(below * 100 > pairs * 99, "{below} of {pairs} differ below");
    }

    #[test]
    fn offset_in_chunk_row_major() {
        let s = slide();
        assert_eq!(s.offset_in_chunk(0, 0), 0);
        assert_eq!(s.offset_in_chunk(1, 0), 3);
        assert_eq!(s.offset_in_chunk(0, 1), 147 * 3);
        // In a clipped chunk, rows are the clipped width.
        assert_eq!(s.offset_in_chunk(882, 1), 118 * 3);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_size_slide_rejected() {
        SlideDataset::new(DatasetId(0), 0, 10);
    }
}
