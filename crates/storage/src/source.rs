//! Data sources: where pages actually come from.
//!
//! The paper's architecture reads datasets from a "disk farm" through data
//! source objects. We provide three sources:
//!
//! * [`SyntheticSource`] — deterministic procedurally generated pages; the
//!   standard source for tests and examples (pixel *values* never influence
//!   scheduling, so synthesizing them preserves all studied behaviour),
//! * [`FileSource`] — pages read from real files on disk (one file per
//!   dataset), for end-to-end runs against actual storage,
//! * [`ThrottledSource`] — a decorator that adds [`DiskModel`]-computed
//!   sleeps, emulating the paper's slow-2002-disk timing on modern
//!   hardware.

use crate::disk::DiskModel;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::mem::MaybeUninit;
use std::path::{Path, PathBuf};
use std::time::Duration;
use vmqs_core::sync::{LockClass, Mutex};
use vmqs_core::DatasetId;

/// A source of fixed-size pages. Implementations must be thread-safe: the
/// query server issues reads from many query threads concurrently.
pub trait DataSource: Send + Sync {
    /// Reads page `index` of `dataset`; always returns exactly `page_size`
    /// bytes (sources zero-fill beyond end of data).
    fn read_page(
        &self,
        dataset: DatasetId,
        index: u64,
        page_size: usize,
    ) -> std::io::Result<Vec<u8>>;
}

/// Deterministic synthetic pages: byte `i` of page `p` of dataset `d` is a
/// pure function of `(d, p, i)`, so tests can verify reuse paths return
/// byte-identical data to recomputation.
#[derive(Debug, Default)]
pub struct SyntheticSource;

impl SyntheticSource {
    /// Creates the source.
    pub fn new() -> Self {
        SyntheticSource
    }

    /// The deterministic content function (exposed so kernels/tests can
    /// predict page contents without I/O): a page is a run of SplitMix64
    /// outputs stored little-endian, every byte of each output kept.
    #[inline]
    pub fn byte_at(dataset: DatasetId, page: u64, offset: u64) -> u8 {
        let word = mix(page_base(dataset, page).wrapping_add(offset / 8));
        word.to_le_bytes()[(offset % 8) as usize]
    }
}

/// Per-page loop-invariant part of the content function: within a page,
/// 8-byte word `k` is `mix(page_base + k)`.
#[inline(always)]
fn page_base(dataset: DatasetId, page: u64) -> u64 {
    dataset
        .raw()
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(page.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// SplitMix64 finalizer.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills word `k` of `buf` with `mix(base + k)`, little-endian; a length
/// that is not a multiple of 8 ends in a truncated word. `put` makes a
/// slot from a byte: `read_page` fills a `Vec`'s spare capacity (a page is
/// written once, not zeroed first), the tests fill plain bytes.
#[inline(always)]
fn fill_words<T: Copy>(base: u64, buf: &mut [T], put: impl Fn(u8) -> T) {
    let last = mix(base.wrapping_add(buf.len() as u64 / 8)).to_le_bytes();
    let mut words = buf.chunks_exact_mut(8);
    for (k, w) in words.by_ref().enumerate() {
        // One 8-byte store per word: written a byte at a time this
        // compiles to byte stores and runs at a hash per byte's speed.
        w.copy_from_slice(&mix(base.wrapping_add(k as u64)).to_le_bytes().map(&put));
    }
    for (b, v) in words.into_remainder().iter_mut().zip(last) {
        *b = put(v);
    }
}

/// [`fill_words`] compiled for the baseline target.
fn fill_page_scalar<T: Copy>(base: u64, buf: &mut [T], put: impl Fn(u8) -> T) {
    fill_words(base, buf, put);
}

/// Same fill, compiled with AVX-512 enabled: AVX-512DQ's native 64-bit
/// lane multiply lets the compiler vectorize the SplitMix64 finalizer
/// (~4x on page generation, DESIGN.md §14). The loop body is
/// [`fill_page_scalar`]'s, so output is byte-identical.
///
/// # Safety
/// Callers must ensure the CPU supports avx512f/dq/bw/vl (checked at the
/// dispatch site with `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
unsafe fn fill_page_avx512(base: u64, buf: &mut [MaybeUninit<u8>]) {
    fill_words(base, buf, MaybeUninit::new);
}

/// Dispatches to the fastest available page fill for this CPU. Every
/// element of `buf` is initialized on return.
fn fill_page(base: u64, buf: &mut [MaybeUninit<u8>]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        static AVX512: AtomicU8 = AtomicU8::new(0); // 0 = unknown, 1 = yes, 2 = no
        let state = AVX512.load(Ordering::Relaxed);
        let have = match state {
            1 => true,
            2 => false,
            _ => {
                let have = is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vl");
                AVX512.store(if have { 1 } else { 2 }, Ordering::Relaxed);
                have
            }
        };
        if have {
            // SAFETY: feature support verified above.
            unsafe { fill_page_avx512(base, buf) };
            return;
        }
    }
    fill_page_scalar(base, buf, MaybeUninit::new);
}

impl DataSource for SyntheticSource {
    fn read_page(
        &self,
        dataset: DatasetId,
        index: u64,
        page_size: usize,
    ) -> std::io::Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(page_size);
        // Slicing checks the capacity; `fill_page` then writes every
        // element of the slice, so the page is never zeroed first.
        let spare = &mut buf.spare_capacity_mut()[..page_size];
        fill_page(page_base(dataset, index), spare);
        // SAFETY: the first `page_size` elements are within capacity and
        // were all initialized by `fill_page` just above.
        unsafe { buf.set_len(page_size) };
        Ok(buf)
    }
}

/// Pages stored in per-dataset files (`<dir>/dataset_<id>.bin`), page `i`
/// at byte offset `i * page_size`. Reads past end-of-file are zero-filled,
/// mirroring a partially materialized slide.
#[derive(Debug)]
pub struct FileSource {
    dir: PathBuf,
    // One shared handle per dataset; positioned reads are serialized per
    // dataset (adequate for tests; the throughput path is the page cache).
    handles: Mutex<HashMap<DatasetId, File>>,
}

impl FileSource {
    /// Opens a source rooted at `dir`.
    pub fn new<P: AsRef<Path>>(dir: P) -> Self {
        FileSource {
            dir: dir.as_ref().to_path_buf(),
            handles: Mutex::ranked(LockClass::Storage, HashMap::new()),
        }
    }

    /// Path of the backing file for a dataset.
    pub fn dataset_path(&self, dataset: DatasetId) -> PathBuf {
        self.dir.join(format!("dataset_{}.bin", dataset.raw()))
    }

    /// Materializes `pages` pages of synthetic data for `dataset` so the
    /// file source serves exactly what [`SyntheticSource`] would.
    pub fn materialize_synthetic(
        &self,
        dataset: DatasetId,
        pages: u64,
        page_size: usize,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let mut f = File::create(self.dataset_path(dataset))?;
        let synth = SyntheticSource::new();
        for p in 0..pages {
            let buf = synth.read_page(dataset, p, page_size)?;
            f.write_all(&buf)?;
        }
        Ok(())
    }
}

impl DataSource for FileSource {
    fn read_page(
        &self,
        dataset: DatasetId,
        index: u64,
        page_size: usize,
    ) -> std::io::Result<Vec<u8>> {
        // The facade recovers a poisoned lock: the map only caches open
        // handles, so it is valid even if a peer panicked mid-insert.
        let mut handles = self.handles.lock();
        let f = match handles.get_mut(&dataset) {
            Some(f) => f,
            None => {
                let f = File::open(self.dataset_path(dataset))?;
                handles.entry(dataset).or_insert(f)
            }
        };
        let mut buf = vec![0u8; page_size];
        f.seek(SeekFrom::Start(index * page_size as u64))?;
        // Zero-fill on short read (page beyond EOF).
        let mut read = 0;
        while read < page_size {
            match f.read(&mut buf[read..]) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(buf)
    }
}

/// Decorator adding [`DiskModel`] latency as real sleeps — lets the
/// threaded engine experience 2002-era I/O costs on modern storage.
pub struct ThrottledSource<S> {
    inner: S,
    model: DiskModel,
    /// Scales sleeps (e.g. `0.01` replays the disk 100× faster, keeping
    /// ratios intact while making tests quick).
    time_scale: f64,
}

impl<S: DataSource> ThrottledSource<S> {
    /// Wraps `inner`, sleeping `model.service_time(page) * time_scale` per
    /// page read.
    pub fn new(inner: S, model: DiskModel, time_scale: f64) -> Self {
        assert!(time_scale >= 0.0);
        ThrottledSource {
            inner,
            model,
            time_scale,
        }
    }
}

impl<S: DataSource> DataSource for ThrottledSource<S> {
    fn read_page(
        &self,
        dataset: DatasetId,
        index: u64,
        page_size: usize,
    ) -> std::io::Result<Vec<u8>> {
        let t = self.model.service_time(page_size as u64) * self.time_scale;
        if t > 0.0 && t.is_finite() {
            std::thread::sleep(Duration::from_secs_f64(t));
        }
        self.inner.read_page(dataset, index, page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_pages_are_deterministic() {
        let s = SyntheticSource::new();
        let a = s.read_page(DatasetId(1), 7, 256).unwrap();
        let b = s.read_page(DatasetId(1), 7, 256).unwrap();
        assert_eq!(a, b);
        let c = s.read_page(DatasetId(2), 7, 256).unwrap();
        assert_ne!(a, c);
        let d = s.read_page(DatasetId(1), 8, 256).unwrap();
        assert_ne!(a, d);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn synthetic_bytes_match_content_function() {
        let s = SyntheticSource::new();
        let page = s.read_page(DatasetId(3), 5, 16).unwrap();
        for (i, &b) in page.iter().enumerate() {
            assert_eq!(b, SyntheticSource::byte_at(DatasetId(3), 5, i as u64));
        }
    }

    #[test]
    fn vectorized_fill_matches_byte_at_on_full_pages() {
        // Exercises whichever fill path `read_page` dispatches to on this
        // CPU (AVX-512 where available, scalar otherwise) against the
        // canonical per-byte definition, across sizes spanning all vector
        // remainder shapes.
        let s = SyntheticSource::new();
        for &size in &[1usize, 7, 63, 64, 65, 1000, 65536] {
            let page = s.read_page(DatasetId(11), 42, size).unwrap();
            assert_eq!(page.len(), size);
            for (i, &b) in page.iter().enumerate() {
                assert_eq!(b, SyntheticSource::byte_at(DatasetId(11), 42, i as u64));
            }
        }
    }

    proptest::proptest! {
        // The Miri job interprets every test of this crate.
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { 256 }
        ))]

        /// Whatever this CPU dispatches to, the scalar compilation and the
        /// per-byte definition agree on any page: at lengths below one
        /// word, with every truncated last word, and with none.
        #[test]
        fn dispatched_fill_scalar_fill_and_byte_at_agree(
            dataset in 0u64..u64::MAX,
            page in 0u64..u64::MAX,
            len in 0usize..4097,
        ) {
            let dataset = DatasetId(dataset);
            let dispatched = SyntheticSource::new().read_page(dataset, page, len).unwrap();
            let mut scalar = vec![0u8; len];
            fill_page_scalar(page_base(dataset, page), &mut scalar, |b| b);
            let defined: Vec<u8> = (0..len as u64)
                .map(|i| SyntheticSource::byte_at(dataset, page, i))
                .collect();
            proptest::prop_assert_eq!(&dispatched, &defined);
            proptest::prop_assert_eq!(&scalar, &defined);
        }
    }

    /// What synthetic bytes are for: a wrong reuse (shifted window, wrong
    /// source chunk, stale page) must not be byte-equal to the right
    /// answer by luck. With one hash per byte that held by accident; with
    /// eight bytes per hash it is pinned here.
    #[test]
    fn synthetic_content_cannot_be_matched_by_a_misplaced_read() {
        const PAGE: usize = 64 << 10;
        let s = SyntheticSource::new();
        let page = s.read_page(DatasetId(5), 9, PAGE).unwrap();
        let mut histogram = [0usize; 256];
        for &b in &page {
            histogram[b as usize] += 1;
        }
        assert!(
            histogram.iter().all(|&n| (192..=320).contains(&n)),
            "byte values are not uniform over a page: {histogram:?}"
        );
        let lane = |l: usize| page.iter().skip(l).step_by(8);
        for a in 0..8 {
            for b in a + 1..8 {
                assert!(!lane(a).eq(lane(b)), "byte lanes {a} and {b} coincide");
            }
        }
        let next_page = s.read_page(DatasetId(5), 10, PAGE).unwrap();
        let next_dataset = s.read_page(DatasetId(6), 9, PAGE).unwrap();
        for other in [next_page, next_dataset] {
            let differing = page.iter().zip(&other).filter(|(a, b)| a != b).count();
            assert!(differing * 100 > PAGE * 99, "{differing} of {PAGE} differ");
        }
    }

    #[test]
    fn file_source_round_trips_synthetic_data() {
        let dir = std::env::temp_dir().join(format!("vmqs_fs_test_{}", std::process::id()));
        let fs = FileSource::new(&dir);
        fs.materialize_synthetic(DatasetId(4), 3, 128).unwrap();
        let synth = SyntheticSource::new();
        for p in 0..3 {
            assert_eq!(
                fs.read_page(DatasetId(4), p, 128).unwrap(),
                synth.read_page(DatasetId(4), p, 128).unwrap()
            );
        }
        // Past-EOF page is zero-filled.
        let z = fs.read_page(DatasetId(4), 99, 128).unwrap();
        assert!(z.iter().all(|&b| b == 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_source_missing_dataset_errors() {
        let dir = std::env::temp_dir().join(format!("vmqs_fs_missing_{}", std::process::id()));
        let fs = FileSource::new(&dir);
        assert!(fs.read_page(DatasetId(9), 0, 64).is_err());
    }

    #[test]
    fn throttled_source_preserves_data() {
        let t = ThrottledSource::new(SyntheticSource::new(), DiskModel::new(0.0, 1e12), 1.0);
        let a = t.read_page(DatasetId(1), 0, 64).unwrap();
        assert_eq!(
            a,
            SyntheticSource::new()
                .read_page(DatasetId(1), 0, 64)
                .unwrap()
        );
    }

    #[test]
    fn throttled_source_sleeps_scaled_time() {
        // 1 ms seek at scale 1.0 → at least ~1 ms for one page.
        let t = ThrottledSource::new(SyntheticSource::new(), DiskModel::new(1e-3, 1e12), 1.0);
        let t0 = vmqs_core::clock::now();
        t.read_page(DatasetId(1), 0, 64).unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(900));
    }
}
