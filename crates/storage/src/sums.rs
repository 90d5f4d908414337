//! Byte-sum primitives for the pixel-averaging kernel (DESIGN.md §3):
//! column sums of a few byte rows, and the reduction of `zoom`-pixel RGB
//! blocks of those sums to their means.
//!
//! Each primitive has a portable reference ([`column_sums_scalar`],
//! [`add_column_sums_scalar`], [`block_means_scalar`]) and a dispatched
//! form that runs an AVX-512BW kernel where the CPU has it and the
//! reference otherwise, with the same answer bit for bit. The kernels are
//! not compiled for other targets or under Miri, which interprets the
//! references.
//!
//! Sums are `u16` and wrap: `zoom` byte rows sum to at most `255 · zoom`
//! per column, and a block of `zoom` such columns per channel to at most
//! `255 · zoom²`, which fits up to zoom 16.

/// Samples per pixel: the blocks [`block_means`] reduces are RGB.
const CHANNELS: usize = 3;

/// Writes into `sums` each column's sum over `rows`:
/// `sums[j] = Σ_k rows[k][j]`, wrapping at `u16`.
///
/// # Panics
/// If a row is shorter than `sums`.
pub fn column_sums(rows: &[&[u8]], sums: &mut [u16]) {
    check_rows(rows, sums.len());
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx512::available() {
        // SAFETY: `available` found every feature the kernel is compiled
        // with, and `check_rows` found every row at least `sums.len()`
        // bytes long, which the kernel reads and no more.
        unsafe { avx512::column_sums::<false>(rows, sums) };
        return;
    }
    column_sums_scalar(rows, sums);
}

/// Adds into `sums` each column's sum over `rows`:
/// `sums[j] += Σ_k rows[k][j]`, wrapping at `u16`.
///
/// # Panics
/// If a row is shorter than `sums`.
pub fn add_column_sums(rows: &[&[u8]], sums: &mut [u16]) {
    check_rows(rows, sums.len());
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx512::available() {
        // SAFETY: as in `column_sums`.
        unsafe { avx512::column_sums::<true>(rows, sums) };
        return;
    }
    add_column_sums_scalar(rows, sums);
}

/// [`column_sums`] by the portable reference whatever the CPU.
pub fn column_sums_scalar(rows: &[&[u8]], sums: &mut [u16]) {
    sums.fill(0);
    add_column_sums_scalar(rows, sums);
}

/// [`add_column_sums`] by the portable reference whatever the CPU.
pub fn add_column_sums_scalar(rows: &[&[u8]], sums: &mut [u16]) {
    check_rows(rows, sums.len());
    for row in rows {
        for (s, &b) in sums.iter_mut().zip(*row) {
            *s = s.wrapping_add(u16::from(b));
        }
    }
}

fn check_rows(rows: &[&[u8]], len: usize) {
    assert!(
        rows.iter().all(|r| r.len() >= len),
        "every row must hold {len} bytes"
    );
}

/// Reduces each block of `zoom` RGB pixels of `sums` (`3 · zoom` samples)
/// to one pixel of `out`: per channel, the block's samples added (wrapping
/// at `u16`) and shifted right by `log2(zoom²)`, the low byte kept. On
/// column sums of `zoom` byte rows that is the block's mean, exactly.
///
/// # Panics
/// Unless `zoom` is 2, 4 or 8, `out` holds whole pixels, and `sums` holds
/// `zoom` samples for each byte of `out`.
pub fn block_means(zoom: usize, sums: &[u16], out: &mut [u8]) {
    check_blocks(zoom, sums, out);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx512::available() {
        // SAFETY: `available` found every feature the kernels are compiled
        // with, and `check_blocks` found `sums.len() == zoom * out.len()`,
        // the lengths the kernels read and write.
        unsafe {
            match zoom {
                2 => avx512::block_means::<2>(sums, out),
                4 => avx512::block_means::<4>(sums, out),
                _ => avx512::block_means::<8>(sums, out),
            }
        }
        return;
    }
    block_means_scalar(zoom, sums, out);
}

/// [`block_means`] by the portable reference whatever the CPU.
pub fn block_means_scalar(zoom: usize, sums: &[u16], out: &mut [u8]) {
    check_blocks(zoom, sums, out);
    let shift = 2 * zoom.trailing_zeros();
    let blocks = sums.chunks_exact(zoom * CHANNELS);
    for (o, block) in out.chunks_exact_mut(CHANNELS).zip(blocks) {
        let mut acc = [0u16; CHANNELS];
        for px in block.chunks_exact(CHANNELS) {
            for (a, &s) in acc.iter_mut().zip(px) {
                *a = a.wrapping_add(s);
            }
        }
        for (o, a) in o.iter_mut().zip(acc) {
            *o = (a >> shift) as u8;
        }
    }
}

fn check_blocks(zoom: usize, sums: &[u16], out: &[u8]) {
    assert!(matches!(zoom, 2 | 4 | 8), "zoom {zoom} is not 2, 4 or 8");
    assert!(out.len().is_multiple_of(CHANNELS), "out holds whole pixels");
    assert_eq!(sums.len(), zoom * out.len(), "zoom sums per output byte");
}

/// The AVX-512BW kernels, for x86-64 CPUs that have [`available`].
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx512 {
    use super::CHANNELS;
    use std::arch::x86_64::*;

    /// True when this CPU has what the kernels need (std caches the probe,
    /// so this is a load per call).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl")
    }

    /// The low `n` bits set, `n <= 32`.
    fn low32(n: usize) -> __mmask32 {
        if n >= 32 {
            !0
        } else {
            (1 << n) - 1
        }
    }

    /// [`super::column_sums`] (`ADD` false) or [`super::add_column_sums`]
    /// (`ADD` true). Two, four and eight rows, the slabs of zooms 2, 4 and
    /// 8, are summed all at once; other counts (the parts of a slab that
    /// straddles a chunk row) one row at a time.
    ///
    /// # Safety
    /// The CPU must have [`available`], and every row must hold at least
    /// `sums.len()` bytes.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(super) unsafe fn column_sums<const ADD: bool>(rows: &[&[u8]], sums: &mut [u16]) {
        // SAFETY: the caller's contract, passed on.
        unsafe {
            match rows.len() {
                2 => sum_rows::<2, ADD>(rows, sums),
                4 => sum_rows::<4, ADD>(rows, sums),
                8 => sum_rows::<8, ADD>(rows, sums),
                0 if !ADD => sums.fill(0),
                _ => {
                    for (k, row) in rows.iter().enumerate() {
                        if ADD || k > 0 {
                            sum_rows::<1, true>(std::slice::from_ref(row), sums);
                        } else {
                            sum_rows::<1, false>(std::slice::from_ref(row), sums);
                        }
                    }
                }
            }
        }
    }

    /// [`column_sums`] over exactly `N` rows, 64 columns a step (the
    /// last step masked to the columns left). Rows go in pairs, the last
    /// of an odd count with zeros: their bytes are interleaved and
    /// multiplied by ones with `vpmaddubsw`, which widens and adds the
    /// pair in one instruction. The interleave works within 16-byte lanes,
    /// so the two sums hold columns 0-7, 16-23, 32-39, 48-55 and 8-15,
    /// 24-31, 40-47, 56-63; a permute of their 16-byte lanes puts them in
    /// order.
    ///
    /// # Safety
    /// As for [`column_sums`]; `rows` must hold `N` rows.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    unsafe fn sum_rows<const N: usize, const ADD: bool>(rows: &[&[u8]], sums: &mut [u16]) {
        let rows: [*const u8; N] = std::array::from_fn(|k| rows[k].as_ptr());
        let n = sums.len();
        let at = sums.as_mut_ptr();
        let ones = _mm512_set1_epi8(1);
        let first = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
        let second = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
        for j in (0..n).step_by(64) {
            let left = n - j;
            let bytes: __mmask64 = u64::MAX >> 64usize.saturating_sub(left);
            let (k_lo, k_hi) = (bytes as __mmask32, (bytes >> 32) as __mmask32);
            // SAFETY: the columns `bytes` selects, `j..n` clipped to 64,
            // lie inside `sums` and, by the caller's contract, inside every
            // row; masked-off lanes are neither read nor written, and the
            // second half of the sums is touched only if it holds a column.
            unsafe {
                let load = |r: *const u8| _mm512_maskz_loadu_epi8(bytes, r.add(j).cast());
                let (mut lo, mut hi) = (_mm512_setzero_si512(), _mm512_setzero_si512());
                for pair in rows.chunks(2) {
                    let a = load(pair[0]);
                    let b = pair.get(1).map_or(_mm512_setzero_si512(), |&r| load(r));
                    lo = _mm512_add_epi16(
                        lo,
                        _mm512_maddubs_epi16(_mm512_unpacklo_epi8(a, b), ones),
                    );
                    hi = _mm512_add_epi16(
                        hi,
                        _mm512_maddubs_epi16(_mm512_unpackhi_epi8(a, b), ones),
                    );
                }
                let (mut lo, mut hi) = (
                    _mm512_permutex2var_epi64(lo, first, hi),
                    _mm512_permutex2var_epi64(lo, second, hi),
                );
                if ADD {
                    lo = _mm512_add_epi16(lo, _mm512_maskz_loadu_epi16(k_lo, at.add(j).cast()));
                }
                _mm512_mask_storeu_epi16(at.add(j).cast(), k_lo, lo);
                if left > 32 {
                    if ADD {
                        let old = _mm512_maskz_loadu_epi16(k_hi, at.add(j + 32).cast());
                        hi = _mm512_add_epi16(hi, old);
                    }
                    _mm512_mask_storeu_epi16(at.add(j + 32).cast(), k_hi, hi);
                }
            }
        }
    }

    /// Per output lane `3b + c` of one step, the sample of the sliding
    /// sums that holds block `b`'s channel `c`: `3 · zoom · b + c`. Lanes
    /// past the step's blocks pick lane 0 and are never stored.
    const fn compaction(zoom: usize) -> [i16; 32] {
        let mut idx = [0i16; 32];
        let mut lane = 0;
        while lane < CHANNELS * blocks_per_step(zoom) {
            idx[lane] = (CHANNELS * zoom * (lane / CHANNELS) + lane % CHANNELS) as i16;
            lane += 1;
        }
        idx
    }

    /// Blocks one step reduces: its output (3 lanes a block) fits one
    /// vector of 32 `u16`, and its last sample lies in the two vectors of
    /// sliding sums the step builds.
    const fn blocks_per_step(zoom: usize) -> usize {
        let by_sums = (64 - CHANNELS) / (CHANNELS * zoom) + 1;
        let by_out = 32 / CHANNELS;
        if by_sums < by_out {
            by_sums
        } else {
            by_out
        }
    }

    static COMPACTION: [[i16; 32]; 3] = [compaction(2), compaction(4), compaction(8)];

    /// `Z` loads of 32 samples, `CHANNELS` apart from `at`, added: lane `i`
    /// is the sum of channel `i % 3` over the `Z` pixels from sample
    /// `at + i`. Samples at or past `n` read as zero.
    ///
    /// # Safety
    /// The CPU must have [`available`]; `base` must point at `n` samples.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    unsafe fn sliding_sum<const Z: usize, const MASKED: bool>(
        base: *const u16,
        n: usize,
        at: usize,
    ) -> __m512i {
        let mut acc = _mm512_setzero_si512();
        for p in 0..Z {
            let from = at + CHANNELS * p;
            // SAFETY: unmasked, the caller keeps `from + 32 <= n`; masked,
            // only the lanes below `n` are read, and a load starting at or
            // past `n` is skipped.
            let v = unsafe {
                if !MASKED {
                    _mm512_loadu_epi16(base.add(from).cast())
                } else if from < n {
                    _mm512_maskz_loadu_epi16(low32((n - from).min(32)), base.add(from).cast())
                } else {
                    _mm512_setzero_si512()
                }
            };
            acc = _mm512_add_epi16(acc, v);
        }
        acc
    }

    /// [`super::block_means`] at zoom `Z`, [`blocks_per_step`] blocks a
    /// step: two vectors of sliding sums, one permute that picks each
    /// block's three channel sums, a shift, and a narrowing store.
    ///
    /// # Safety
    /// The CPU must have [`available`], `out` must hold whole pixels and
    /// `sums.len()` must be `Z * out.len()`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(super) unsafe fn block_means<const Z: usize>(sums: &[u16], out: &mut [u8]) {
        let step = blocks_per_step(Z);
        let idx_table = &COMPACTION[Z.trailing_zeros() as usize - 1];
        // SAFETY: a 32-lane load of a 32-element array.
        let idx = unsafe { _mm512_loadu_epi16(idx_table.as_ptr()) };
        let shift = _mm_cvtsi32_si128(2 * Z.trailing_zeros() as i32);
        let (n, base) = (sums.len(), sums.as_ptr());
        let blocks = out.len() / CHANNELS;
        let mut b = 0;
        while b < blocks {
            let at = CHANNELS * Z * b;
            let take = (blocks - b).min(step);
            // A step reads `64 + 3 (Z - 1)` samples from `at`: unmasked
            // while they all lie in `sums`, masked at the end of the row.
            let inside = at + 64 + CHANNELS * (Z - 1) <= n;
            // SAFETY: unmasked loads stay inside `sums` (`inside`), masked
            // ones read only samples below `n`; the store writes the
            // `3 · take` bytes of blocks `b..b + take`, all inside `out`.
            unsafe {
                let (lo, hi) = if inside {
                    (
                        sliding_sum::<Z, false>(base, n, at),
                        sliding_sum::<Z, false>(base, n, at + 32),
                    )
                } else {
                    (
                        sliding_sum::<Z, true>(base, n, at),
                        sliding_sum::<Z, true>(base, n, at + 32),
                    )
                };
                let means = _mm512_srl_epi16(_mm512_permutex2var_epi16(lo, idx, hi), shift);
                let to = out.as_mut_ptr().add(CHANNELS * b).cast();
                _mm512_mask_cvtepi16_storeu_epi8(to, low32(CHANNELS * take), means);
            }
            b += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `len` pseudo-random bytes from `seed`.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut z = seed;
        (0..len)
            .map(|_| {
                z = z
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (z >> 56) as u8
            })
            .collect()
    }

    /// `count` rows of `len + 7` noise bytes each.
    fn rows_of(seed: u64, count: usize, len: usize) -> Vec<Vec<u8>> {
        (0..count as u64)
            .map(|k| noise(seed ^ (k << 32), len + 7))
            .collect()
    }

    /// Every compiled level of both column-sum forms agrees with the
    /// reference, and the reference with the definition. The AVX-512
    /// kernel is also called directly, so a CPU that has it checks it
    /// even where dispatch would have chosen it anyway; one that lacks it
    /// checks the dispatch to the reference.
    fn check_column_sums(rows: &[Vec<u8>], len: usize, start: &[u16]) {
        let rows: Vec<&[u8]> = rows.iter().map(|r| &r[..]).collect();
        let defined: Vec<u16> = (0..len)
            .map(|j| rows.iter().map(|r| u16::from(r[j])).sum())
            .collect();
        let added: Vec<u16> = start
            .iter()
            .zip(&defined)
            .map(|(s, d)| s.wrapping_add(*d))
            .collect();
        let mut want = vec![0xAAAA; len];
        column_sums_scalar(&rows, &mut want);
        assert_eq!(want, defined, "reference, {} rows of {len}", rows.len());
        let mut got = vec![0xAAAA; len];
        column_sums(&rows, &mut got);
        assert_eq!(got, defined, "dispatched, {} rows of {len}", rows.len());
        let mut acc = start.to_vec();
        add_column_sums_scalar(&rows, &mut acc);
        assert_eq!(acc, added, "reference add, {} rows of {len}", rows.len());
        let mut acc = start.to_vec();
        add_column_sums(&rows, &mut acc);
        assert_eq!(acc, added, "dispatched add, {} rows of {len}", rows.len());
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if avx512::available() {
            let mut got = vec![0xAAAA; len];
            // SAFETY: feature checked above; every row holds `len + 7`
            // bytes.
            unsafe { avx512::column_sums::<false>(&rows, &mut got) };
            assert_eq!(got, defined, "avx512, {} rows of {len}", rows.len());
            let mut acc = start.to_vec();
            // SAFETY: as above.
            unsafe { avx512::column_sums::<true>(&rows, &mut acc) };
            assert_eq!(acc, added, "avx512 add, {} rows of {len}", rows.len());
        }
    }

    /// As [`check_column_sums`], for [`block_means`].
    fn check_block_means(zoom: usize, sums: &[u16]) {
        let mut want = vec![0x55; sums.len() / zoom];
        block_means_scalar(zoom, sums, &mut want);
        let mut got = vec![0xAA; want.len()];
        block_means(zoom, sums, &mut got);
        assert_eq!(got, want, "dispatched, zoom {zoom}, {} sums", sums.len());
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if avx512::available() {
            let mut got = vec![0xAA; want.len()];
            // SAFETY: feature checked above; `want`'s length was accepted
            // by `block_means_scalar`.
            unsafe {
                match zoom {
                    2 => avx512::block_means::<2>(sums, &mut got),
                    4 => avx512::block_means::<4>(sums, &mut got),
                    _ => avx512::block_means::<8>(sums, &mut got),
                }
            }
            assert_eq!(got, want, "avx512, zoom {zoom}, {} sums", sums.len());
        }
    }

    proptest::proptest! {
        // The Miri job interprets every test of this crate.
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { 256 }
        ))]

        /// Any bytes, 2, 4 or 8 rows (and the other counts a slab that
        /// straddles a chunk row splits into, and none), any length: under
        /// one vector, across the 64-column steps and their masked tail.
        #[test]
        fn column_sums_agree_with_the_reference_in_both_forms(
            seed in 0u64..u64::MAX,
            count in 0usize..9,
            zi in 0usize..3,
            power_of_two in proptest::bool::ANY,
            len in 0usize..700,
        ) {
            let count = if power_of_two { [2, 4, 8][zi] } else { count };
            let start: Vec<u16> = noise(!seed, 2 * len)
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]))
                .collect();
            check_column_sums(&rows_of(seed, count, len), len, &start);
        }

        /// Column sums of any `zoom` byte rows reduce to each block's mean,
        /// for any whole number of blocks; arbitrary `u16` sums, which
        /// wrap, reduce to the reference's bytes.
        #[test]
        fn block_means_are_the_mean_and_agree_with_the_reference(
            seed in 0u64..u64::MAX,
            zi in 0usize..3,
            blocks in 0usize..80,
        ) {
            let zoom = [2usize, 4, 8][zi];
            let len = 3 * zoom * blocks;
            let rows = rows_of(seed, zoom, len);
            let rows: Vec<&[u8]> = rows.iter().map(|r| &r[..]).collect();
            let mut sums = vec![0; len];
            column_sums(&rows, &mut sums);
            check_block_means(zoom, &sums);
            let mut means = vec![0; 3 * blocks];
            block_means(zoom, &sums, &mut means);
            for (i, &m) in means.iter().enumerate() {
                let (b, c) = (i / 3, i % 3);
                let total: u32 = rows
                    .iter()
                    .flat_map(|r| (0..zoom).map(move |p| u32::from(r[3 * (zoom * b + p) + c])))
                    .sum();
                proptest::prop_assert_eq!(u32::from(m), total / (zoom * zoom) as u32);
            }
            let wild: Vec<u16> = noise(seed, 2 * len)
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]))
                .collect();
            check_block_means(zoom, &wild);
        }
    }

    /// White rows give the largest sums at every zoom: 255 · zoom a
    /// column, 255 · zoom² a block, which must not wrap.
    #[test]
    fn the_largest_sums_do_not_wrap() {
        for zoom in [2usize, 4, 8] {
            let len = 3 * zoom * 37;
            let white = vec![0xFF; len];
            let rows = vec![&white[..]; zoom];
            let mut sums = vec![0; len];
            column_sums(&rows, &mut sums);
            assert!(sums.iter().all(|&s| usize::from(s) == 255 * zoom));
            let mut means = vec![0; len / zoom];
            block_means(zoom, &sums, &mut means);
            assert!(means.iter().all(|&m| m == 0xFF), "zoom {zoom}");
        }
    }

    #[test]
    #[should_panic(expected = "every row must hold 10 bytes")]
    fn a_short_row_is_refused() {
        column_sums(&[&[0; 10], &[0; 9]], &mut [0; 10]);
    }

    #[test]
    #[should_panic(expected = "zoom 3 is not 2, 4 or 8")]
    fn an_unsupported_zoom_is_refused() {
        block_means(3, &[0; 9], &mut [0; 3]);
    }
}
