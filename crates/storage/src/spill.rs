//! The tier-2 spill store backing the Data Store's RESTORABLE phase
//! (DESIGN.md §14) with crash-consistent frames (DESIGN.md §15).
//!
//! Warm cache entries evicted from memory serialize here in a compact
//! framed format instead of being dropped; a later exact-match lookup
//! re-heats them at disk cost rather than recompute cost. The v2 format
//! is deliberately dumb — magic, version, a metadata block (the
//! application-encoded predicate, so a cold restart can rebuild the Data
//! Store index), the payload, and a CRC32 trailer over everything before
//! it. Frames are written to the blob's `.tmp` file and renamed into
//! place, so a crash mid-write can never leave a half-frame under
//! the `.spill` name: either the rename happened and the frame
//! validates, or it did not and [`SpillStore::recover`] sweeps the torn
//! `.tmp` away.
//!
//! Fault injection reuses the crate's seeded [`FaultConfig`] draws keyed
//! on the reserved [`SPILL_DEVICE`] dataset and the blob id, so tests can
//! predict exactly which tier-2 reads are poisoned without issuing them —
//! the same pure-function contract the page-read injector honors. Chaos
//! injection ([`ChaosConfig`]) adds process-level failures: a kill-point
//! that dies mid-write (torn `.tmp`, no rename) and a bit flip applied
//! after the CRC was computed (an intact-looking frame the trailer
//! rejects into the recompute fallback).

use crate::fault::FaultConfig;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use vmqs_core::sync::{lockdep, LockClass};
use vmqs_core::ChaosConfig;
use vmqs_core::{BlobId, DatasetId};

/// The reserved dataset key under which tier-2 read faults are drawn:
/// `FaultConfig::page_is_poisoned(SPILL_DEVICE, blob.raw())` decides
/// whether a spill read is permanently unreadable. Real page datasets are
/// small consecutive ids, so the reserved key cannot collide.
pub const SPILL_DEVICE: DatasetId = DatasetId(u64::MAX);

/// File magic: identifies a spill frame (and guards against reading a
/// foreign file dropped into the spill directory).
const MAGIC: [u8; 4] = *b"VMQS";
/// Frame format version. v2 added the metadata block and moved integrity
/// from an FNV header field to a whole-frame CRC32 trailer; v1 frames
/// are rejected (and swept by recovery) rather than migrated — spill
/// frames are a cache, recomputing is always safe.
const VERSION: u8 = 2;
/// Frame header: magic + version + 3 pad bytes + meta length u64 +
/// payload length u64. The CRC32 trailer lives at the end of the frame.
const HEADER_LEN: usize = 4 + 1 + 3 + 8 + 8;
/// CRC32 trailer bytes.
const TRAILER_LEN: usize = 4;

/// Monotone counters for spill-store traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Frames written (renamed into place).
    pub writes: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Frames read back successfully.
    pub reads: u64,
    /// Payload bytes read back.
    pub bytes_read: u64,
    /// Reads that failed (injected poison, missing file, corrupt frame).
    pub read_failures: u64,
    /// Frames removed.
    pub removes: u64,
    /// Writes that died at the chaos kill-point, leaving a torn `.tmp`.
    pub torn_writes: u64,
    /// Frames corrupted by an injected bit flip after their CRC.
    pub bit_flips: u64,
}

/// Bytes the checksum kernel folds per step (two 64-bit words), one
/// lookup table each.
const SLICES: usize = 16;

/// CRC32 (IEEE 802.3, the zlib polynomial), hand-rolled over const
/// tables: the workspace vendors no checksum crate, and 4 bytes of
/// trailer catch torn writes, truncation, and single-bit rot alike.
/// `tables[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// the `SLICES` bytes of one step are looked up independently and XORed
/// (table slicing) instead of chaining one dependent lookup per byte.
const fn crc32_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; SLICES] = crc32_tables();

/// The portable kernel: advances the CRC register `c` over `bytes`,
/// [`SLICES`] bytes a step, then a byte at a time.
fn table_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut steps = bytes.chunks_exact(SLICES);
    for step in &mut steps {
        // The running CRC folds into the first four bytes; byte `j`
        // of the step then has `15 - j` bytes after it.
        let (lo, hi) = step.split_at(8);
        let lo = u64::from_le_bytes(lo.try_into().expect("8 bytes")) ^ u64::from(c);
        let lo = lo.to_le_bytes();
        c = 0;
        for j in 0..8 {
            c ^= t[15 - j][lo[j] as usize] ^ t[7 - j][hi[j] as usize];
        }
    }
    for &b in steps.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply kernel for x86-64 CPUs with PCLMULQDQ (Intel,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", 2009). It folds the input into four 128-bit lanes 64
/// bytes a step, folds the lanes and any further 16-byte blocks into one,
/// and reduces that to the 32-bit register: to 64 bits by two more folds,
/// then by a Barrett reduction. A tail under 16 bytes goes to the table.
/// The constants are powers of x modulo the polynomial, bit-reflected like
/// the register, so the CRC is the table's bit for bit. Miri and other
/// targets take the table path.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::*;

    /// x^(4·128+32) and x^(4·128-32) mod P: fold a lane over 64 bytes.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(128+32) and x^(128-32) mod P: fold a lane over 16 bytes.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// x^64 mod P: the fold from 96 to 64 bits.
    const K5: i64 = 0x1_63CD_6124;
    /// P itself and μ = x^64 / P, for the Barrett reduction.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// True when this CPU has what [`update`] needs (std caches the
    /// probe, so this is a load per call).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Sixteen bytes as one lane, little-endian.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(bytes: &[u8]) -> __m128i {
        let half = |at: usize| i64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(half(8), half(0))
    }

    /// `acc` carried over the 128 bits of `next` (`keys` says how far
    /// ahead it sits) and added to them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// [`super::table_update`], for a CPU that has [`available`].
    ///
    /// # Safety
    /// Calling it from code not compiled with these features is `unsafe`:
    /// the caller must have checked [`available`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(c: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let Some(first) = blocks.next() else {
            return super::table_update(c, bytes);
        };
        let mut x = [
            _mm_xor_si128(lane(first), _mm_cvtsi32_si128(c as i32)),
            lane(&first[16..]),
            lane(&first[32..]),
            lane(&first[48..]),
        ];
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (i, lane_x) in x.iter_mut().enumerate() {
                *lane_x = fold(*lane_x, lane(&block[16 * i..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut rest = blocks.remainder().chunks_exact(16);
        for block in &mut rest {
            acc = fold(acc, lane(block), k3k4);
        }
        // 128 -> 96 -> 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: 64 -> 32 bits, the quotient estimated through μ.
        let pu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::table_update(c, rest.remainder())
    }
}

/// A CRC32 in progress: [`Crc32::update`] over consecutive pieces gives
/// what one pass over their concatenation gives, so a frame is
/// checksummed where its parts already lie.
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Runs the carry-less-multiply kernel where the CPU has it, the
    /// table kernel otherwise.
    fn update(&mut self, bytes: &[u8]) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if clmul::available() {
            // SAFETY: `available` found PCLMULQDQ and SSE4.1 on this CPU,
            // every feature `clmul::update` is compiled with.
            self.0 = unsafe { clmul::update(self.0, bytes) };
            return;
        }
        self.0 = table_update(self.0, bytes);
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// CRC32 over `bytes` (init and final XOR `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// [`crc32`] by the portable table kernel whatever the CPU: the
/// reference the dispatched kernel is benchmarked and tested against.
pub fn crc32_table(bytes: &[u8]) -> u32 {
    table_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// The v2 frame header for a frame holding `meta_len` + `payload_len`
/// bytes.
fn encode_header(meta_len: usize, payload_len: usize) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[8..16].copy_from_slice(&(meta_len as u64).to_le_bytes());
    header[16..24].copy_from_slice(&(payload_len as u64).to_le_bytes());
    header
}

/// Reads exactly `len` bytes into a buffer of exactly that capacity,
/// filled by the read itself (no zero-fill first).
fn read_vec(f: &mut fs::File, len: u64) -> io::Result<Vec<u8>> {
    let cap = usize::try_from(len).map_err(|_| io::ErrorKind::OutOfMemory)?;
    let mut buf = Vec::with_capacity(cap);
    f.take(len).read_to_end(&mut buf)?;
    if buf.len() != cap {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(buf)
}

/// A frame [`SpillStore::validate`] accepted.
struct Frame {
    meta: Vec<u8>,
    /// Empty when the caller asked for verification only.
    payload: Vec<u8>,
    /// Payload bytes the frame holds.
    size: u64,
}

/// One frame [`SpillStore::recover`] found intact: the blob id (from the
/// file name), the application-encoded predicate metadata, and the
/// payload size. The payload itself stays on disk — the restore path
/// re-reads it on demand, exactly like a frame spilled this run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredFrame {
    /// The blob id the frame was written under.
    pub blob: BlobId,
    /// The metadata block (an application-encoded predicate).
    pub meta: Vec<u8>,
    /// Payload bytes held by the frame.
    pub size: u64,
}

/// What a startup [`SpillStore::recover`] scan found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames that validated end-to-end (magic, version, lengths, CRC)
    /// and can be fed back to the Data Store as RESTORABLE entries.
    pub restorable: Vec<RecoveredFrame>,
    /// Torn or corrupt `.spill` frames deleted (bad magic, wrong version,
    /// short file, CRC mismatch, unparsable blob id).
    pub removed_torn: u64,
    /// Stale `.tmp` files deleted (writes that never reached the rename).
    pub removed_tmp: u64,
}

impl RecoveryReport {
    /// Total payload bytes across the restorable frames — the tier-2
    /// byte accounting a cold start charges back to the Data Store.
    pub fn bytes_restorable(&self) -> u64 {
        self.restorable.iter().map(|f| f.size).sum()
    }
}

/// An on-disk tier-2 store for spilled Data Store entries.
///
/// One file per blob under the configured directory, written once: the
/// Data Store asks for a blob's frame at its first demotion and keeps it
/// until the blob leaves for good, so a blob never has two writes in
/// flight and its staging file is simply `blob-<id>.tmp`. The threaded
/// engine makes every frame call with no Data Store lock held:
/// [`SpillStore::write`] after the critical section that demoted the
/// entry (which keeps its bytes until the frame has landed),
/// [`SpillStore::read`] between the probe that found a RESTORABLE entry
/// and the critical section that promotes it, and [`SpillStore::remove`]
/// after the one that dropped the blob for good. Debug builds check this:
/// each of the three panics under a `Store` or `ShardState` lock
/// ([`lockdep::assert_unheld`]). All methods take `&self`; the store
/// itself keeps no mutable state beyond atomic counters.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    fault: FaultConfig,
    chaos: ChaosConfig,
    /// Global write ordinal: the coordinate chaos kill-points key on.
    write_seq: std::sync::atomic::AtomicU64,
    /// Latched by the crash kill-point. A crashed store mutates nothing
    /// further — writes fail and removes are no-ops — modeling a process
    /// that died mid-spill and never ran its in-process cleanup; the torn
    /// `.tmp` must wait for the next startup's [`SpillStore::recover`].
    crashed: std::sync::atomic::AtomicBool,
    writes: std::sync::atomic::AtomicU64,
    bytes_written: std::sync::atomic::AtomicU64,
    reads: std::sync::atomic::AtomicU64,
    bytes_read: std::sync::atomic::AtomicU64,
    read_failures: std::sync::atomic::AtomicU64,
    removes: std::sync::atomic::AtomicU64,
    torn_writes: std::sync::atomic::AtomicU64,
    bit_flips: std::sync::atomic::AtomicU64,
}

impl SpillStore {
    /// Opens (creating if needed) a spill store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SpillStore {
            dir,
            fault: FaultConfig::none(),
            chaos: ChaosConfig::none(),
            write_seq: Default::default(),
            crashed: Default::default(),
            writes: Default::default(),
            bytes_written: Default::default(),
            reads: Default::default(),
            bytes_read: Default::default(),
            read_failures: Default::default(),
            removes: Default::default(),
            torn_writes: Default::default(),
            bit_flips: Default::default(),
        })
    }

    /// Builder: injects seeded faults into tier-2 reads (permanent faults
    /// drawn on [`SPILL_DEVICE`] × blob id; transient/latency knobs are
    /// ignored here — the restore path has no retry loop, a failed
    /// restore falls back to recomputation).
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Builder: arms the chaos kill-points on [`SpillStore::write`]
    /// (crash-mid-spill, post-CRC bit flip). Poison-query and
    /// panic-at-compute knobs are consumed by the engines, not here.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// The directory frames live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> SpillStats {
        use std::sync::atomic::Ordering::Relaxed;
        SpillStats {
            writes: self.writes.load(Relaxed),
            bytes_written: self.bytes_written.load(Relaxed),
            reads: self.reads.load(Relaxed),
            bytes_read: self.bytes_read.load(Relaxed),
            read_failures: self.read_failures.load(Relaxed),
            removes: self.removes.load(Relaxed),
            torn_writes: self.torn_writes.load(Relaxed),
            bit_flips: self.bit_flips.load(Relaxed),
        }
    }

    /// True when a tier-2 read of `blob` would fail with injected poison
    /// — a pure function of the fault seed, so tests and the simulator
    /// can predict restore failures without touching disk.
    pub fn blob_is_poisoned(&self, blob: BlobId) -> bool {
        self.fault.page_is_poisoned(SPILL_DEVICE, blob.raw())
    }

    fn path_of(&self, blob: BlobId) -> PathBuf {
        self.dir.join(format!("blob-{}.spill", blob.raw()))
    }

    fn tmp_path_of(&self, blob: BlobId) -> PathBuf {
        self.dir.join(format!("blob-{}.tmp", blob.raw()))
    }

    /// Serializes `meta` (the application-encoded predicate) and
    /// `payload` as the v2 frame for `blob`, overwriting any previous
    /// frame. Atomic: the frame is staged as `blob-<id>.tmp` and renamed
    /// into place, so a crash between the two leaves the old frame (or no
    /// frame) — never a torn one — under the `.spill` name. The caller
    /// writes a blob at most once at a time, since the two writes would
    /// share the staging file. The frame is never assembled in memory:
    /// its parts are checksummed where they lie and written one after
    /// another.
    pub fn write(&self, blob: BlobId, meta: &[u8], payload: &[u8]) -> io::Result<()> {
        use std::sync::atomic::Ordering::Relaxed;
        lockdep::assert_unheld(&[LockClass::ShardState, LockClass::Store], "frame write");
        if self.crashed.load(Relaxed) {
            return Err(io::Error::other(
                "spill store crashed at a chaos kill-point",
            ));
        }
        let ordinal = self.write_seq.fetch_add(1, Relaxed);
        let header = encode_header(meta.len(), payload.len());
        let mut crc = Crc32::new();
        crc.update(&header);
        crc.update(meta);
        crc.update(payload);
        let trailer = crc.finish().to_le_bytes();
        // Corrupt one payload byte *after* the CRC was computed: the
        // frame lands on disk looking complete, and only the trailer
        // check at read/recovery time can reject it.
        let mid = payload.len() / 2;
        let flipped = (self.chaos.bit_flip_frame == Some(ordinal) && !payload.is_empty())
            .then(|| [payload[mid] ^ 0x01]);
        let (before, flip, after) = match &flipped {
            Some(byte) => {
                self.bit_flips.fetch_add(1, Relaxed);
                (&payload[..mid], &byte[..], &payload[mid + 1..])
            }
            None => (payload, &[][..], &[][..]),
        };
        let frame_len = HEADER_LEN + meta.len() + payload.len() + TRAILER_LEN;
        let crash = self.chaos.crash_spill_write == Some(ordinal);
        // Kill-point: the process "dies" after flushing only half the
        // frame. No rename happens, so the `.spill` namespace is
        // untouched; the torn `.tmp` waits for recovery hygiene.
        let mut left = if crash { frame_len / 2 } else { frame_len };
        let tmp = self.tmp_path_of(blob);
        let staged = (|| {
            let mut f = fs::File::create(&tmp)?;
            for part in [&header[..], meta, before, flip, after, &trailer[..]] {
                let n = part.len().min(left);
                f.write_all(&part[..n])?;
                left -= n;
            }
            Ok(())
        })();
        if crash {
            self.torn_writes.fetch_add(1, Relaxed);
            self.crashed.store(true, Relaxed);
            return Err(io::Error::other(format!(
                "injected crash mid-spill-write for {blob} (ordinal {ordinal})"
            )));
        }
        if let Err(e) = staged.and_then(|()| fs::rename(&tmp, self.path_of(blob))) {
            // A live process cleans up after its own failed write.
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.writes.fetch_add(1, Relaxed);
        self.bytes_written.fetch_add(payload.len() as u64, Relaxed);
        Ok(())
    }

    /// Validates the frame at `path` in one streaming pass: magic,
    /// version, the header's lengths against the file's, CRC trailer.
    /// Only the header is trusted with an allocation, and only after its
    /// lengths were found to add up to the file's own. The payload is
    /// read once, into the buffer that is handed on, when `keep_payload`
    /// is set; otherwise it passes through a fixed scratch buffer and
    /// only its length comes back. A frame that fails a check is
    /// `InvalidData`; I/O errors pass through as they are.
    fn validate(path: &Path, keep_payload: bool) -> io::Result<Frame> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut f = fs::File::open(path)?;
        let file_len = f.metadata()?.len();
        if file_len < (HEADER_LEN + TRAILER_LEN) as u64 {
            return Err(invalid(format!("short frame ({file_len} bytes)")));
        }
        let mut header = [0u8; HEADER_LEN];
        f.read_exact(&mut header)?;
        if header[..4] != MAGIC {
            return Err(invalid("bad spill magic".into()));
        }
        if header[4] != VERSION {
            return Err(invalid(format!(
                "unsupported spill frame version {}",
                header[4]
            )));
        }
        let meta_len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let size = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let want_len = (HEADER_LEN as u64)
            .checked_add(meta_len)
            .and_then(|n| n.checked_add(size))
            .and_then(|n| n.checked_add(TRAILER_LEN as u64));
        if want_len != Some(file_len) {
            return Err(invalid(format!(
                "frame length mismatch ({file_len} bytes, header claims {meta_len}+{size})"
            )));
        }
        let mut crc = Crc32::new();
        crc.update(&header);
        let meta = read_vec(&mut f, meta_len)?;
        crc.update(&meta);
        let payload = if keep_payload {
            let payload = read_vec(&mut f, size)?;
            crc.update(&payload);
            payload
        } else {
            let mut scratch = [0u8; 16 << 10];
            let mut left = size;
            while left > 0 {
                let n = left.min(scratch.len() as u64) as usize;
                f.read_exact(&mut scratch[..n])?;
                crc.update(&scratch[..n]);
                left -= n as u64;
            }
            Vec::new()
        };
        let mut trailer = [0u8; TRAILER_LEN];
        f.read_exact(&mut trailer)?;
        if crc.finish() != u32::from_le_bytes(trailer) {
            return Err(invalid("spill CRC mismatch".into()));
        }
        Ok(Frame {
            meta,
            payload,
            size,
        })
    }

    /// Reads back the payload for `blob`, validating magic, version,
    /// lengths and the CRC trailer. Fails with `InvalidData` on injected
    /// poison or a corrupt frame — both non-transient, so the caller
    /// drops the entry and recomputes. A torn frame can never validate:
    /// the CRC covers the header, metadata, and payload alike.
    pub fn read(&self, blob: BlobId) -> io::Result<Vec<u8>> {
        use std::sync::atomic::Ordering::Relaxed;
        lockdep::assert_unheld(&[LockClass::ShardState, LockClass::Store], "frame read");
        if self.blob_is_poisoned(blob) {
            self.read_failures.fetch_add(1, Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("injected permanent fault: spill read {blob}"),
            ));
        }
        match Self::validate(&self.path_of(blob), true) {
            Ok(frame) => {
                self.reads.fetch_add(1, Relaxed);
                self.bytes_read.fetch_add(frame.size, Relaxed);
                Ok(frame.payload)
            }
            Err(e) => {
                self.read_failures.fetch_add(1, Relaxed);
                Err(io::Error::new(e.kind(), format!("{e} for {blob}")))
            }
        }
    }

    /// Startup scan (DESIGN.md §15): walks the spill directory, validates
    /// every `.spill` frame end-to-end, deletes torn/corrupt frames and
    /// stale `.tmp` files, and returns the intact frames so the caller
    /// can rebuild tier-2 byte accounting and feed the entries back to
    /// the Data Store as RESTORABLE. Frames are reported in ascending
    /// blob order so adoption is deterministic. Idempotent: a second scan
    /// over an untouched directory reports the same restorable set and
    /// removes nothing.
    pub fn recover(&self) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        for entry in fs::read_dir(&self.dir)? {
            let p = entry?.path();
            let ext = p.extension().and_then(|e| e.to_str());
            match ext {
                Some("tmp") => {
                    // A write that never reached its rename: by
                    // construction nothing references it.
                    fs::remove_file(&p)?;
                    report.removed_tmp += 1;
                }
                Some("spill") => {
                    let blob = p
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .and_then(|s| s.strip_prefix("blob-"))
                        .and_then(|s| s.parse::<u64>().ok())
                        .map(BlobId);
                    // An unparsable name is an orphan: no Data Store
                    // entry could ever reference it.
                    let frame = blob.and_then(|blob| {
                        let Frame { meta, size, .. } = Self::validate(&p, false).ok()?;
                        Some(RecoveredFrame { blob, meta, size })
                    });
                    match frame {
                        Some(f) => report.restorable.push(f),
                        None => {
                            fs::remove_file(&p)?;
                            report.removed_torn += 1;
                        }
                    }
                }
                // Foreign files (no extension match) are left alone: the
                // directory may be a shared tmpdir.
                _ => {}
            }
        }
        report.restorable.sort_by_key(|f| f.blob.raw());
        Ok(report)
    }

    /// Deletes the frame for `blob`. Missing frames are not an error. A
    /// write cleans up its own staging file when it fails; only a crash
    /// leaves one, for [`SpillStore::recover`].
    pub fn remove(&self, blob: BlobId) -> io::Result<()> {
        use std::sync::atomic::Ordering::Relaxed;
        lockdep::assert_unheld(&[LockClass::ShardState, LockClass::Store], "frame unlink");
        if self.crashed.load(Relaxed) {
            // A crashed store leaves the directory untouched; recovery
            // on the next startup owns the cleanup.
            return Ok(());
        }
        match fs::remove_file(self.path_of(blob)) {
            Ok(()) => {
                self.removes.fetch_add(1, Relaxed);
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Number of frames currently on disk.
    pub fn len(&self) -> io::Result<usize> {
        Ok(self.frame_paths()?.len())
    }

    /// True when no frames are on disk.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Removes every frame and stale `.tmp` (end-of-run hygiene; the
    /// directory itself stays, it may be a shared tmpdir).
    pub fn clear(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "spill" || e == "tmp") {
                fs::remove_file(p)?;
            }
        }
        Ok(())
    }

    fn frame_paths(&self) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "spill") {
                out.push(p);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique per-test directory without wall-clock or RNG (banned by the
    /// workspace lints): process id + an atomic counter.
    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("vmqs-spill-{}-{tag}-{n}", std::process::id()))
    }

    fn cleanup(store: &SpillStore) {
        store.clear().unwrap();
        let _ = fs::remove_dir(store.dir());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check values (zlib polynomial).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise table walk the sliced kernel replaced, kept as the
    /// oracle: one dependent lookup per byte, nothing to get wrong.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFF_u32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

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

    /// The dispatched kernel (carry-less multiply where the CPU has it),
    /// the table kernel and the oracle agree on `bytes`, and `update` over
    /// the pieces `cuts` splits it into equals one pass: a frame is
    /// checksummed as header + meta + payload.
    fn check_kernels(bytes: &[u8], cuts: &[usize]) {
        let whole = crc32(bytes);
        assert_eq!(whole, crc32_bytewise(bytes), "{} bytes", bytes.len());
        assert_eq!(crc32_table(bytes), whole, "{} bytes", bytes.len());
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        let mut from = 0;
        for to in cuts.into_iter().chain([bytes.len()]) {
            crc.update(&bytes[from..to]);
            from = to;
        }
        assert_eq!(crc.finish(), whole, "{} bytes split", bytes.len());
    }

    proptest::proptest! {
        // The Miri job interprets every test of this crate.
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { 256 }
        ))]

        /// Any bytes, any length around both kernels' steps (so the
        /// 64-byte folds, the 16-byte folds, the sliced body and the
        /// bytewise tail all move), any start offset in the buffer.
        #[test]
        fn dispatched_and_table_crcs_equal_the_bytewise_oracle_under_any_split(
            seed in 0u64..u64::MAX,
            len in 0usize..4097,
            offset in 0usize..16,
            cuts in proptest::collection::vec(0usize..4097, 0..4),
        ) {
            check_kernels(&noise(seed, offset + len)[offset..], &cuts);
        }
    }

    /// A 192 KiB tile frame's worth of bytes and 61 more, at every start
    /// offset of a 16-byte lane.
    #[test]
    #[cfg_attr(miri, ignore = "three passes over 192 KiB at 16 offsets")]
    fn dispatched_crc_equals_the_oracle_on_a_tile() {
        let buf = noise(7, (192 << 10) + 61 + 15);
        for offset in 0..16 {
            let bytes = &buf[offset..offset + (192 << 10) + 61];
            check_kernels(bytes, &[24, 24 + 48, 100_003]);
        }
    }

    /// A frame checksummed by the table kernel validates through the
    /// dispatched one, and a frame the store writes carries the trailer
    /// the table kernel computes: the format did not change.
    #[test]
    fn frames_checksummed_by_either_kernel_validate_through_the_other() {
        let s = SpillStore::new(tmpdir("kernels")).unwrap();
        let (meta, payload) = (noise(1, 48), noise(2, 4096 + 61));
        let mut frame = encode_header(meta.len(), payload.len()).to_vec();
        frame.extend_from_slice(&meta);
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32_table(&frame).to_le_bytes());
        fs::write(s.dir().join("blob-1.spill"), &frame).unwrap();
        assert_eq!(s.read(BlobId(1)).unwrap(), payload);
        s.write(BlobId(2), &meta, &payload).unwrap();
        assert_eq!(fs::read(s.dir().join("blob-2.spill")).unwrap(), frame);
        cleanup(&s);
    }

    /// Blob 17, meta `vmqs:golden`, 37 payload bytes `7i + 3`, as the
    /// staging writer of the commit before the streaming one put it on
    /// disk.
    const GOLDEN_V2_FRAME: &str = "564d5153020000000b000000000000002500000000000000\
        766d71733a676f6c64656e\
        030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff\
        42dfef4e";

    #[test]
    fn golden_v2_frame_is_accepted_and_reproduced_byte_for_byte() {
        let golden: Vec<u8> = (0..GOLDEN_V2_FRAME.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_V2_FRAME[i..i + 2], 16).unwrap())
            .collect();
        let payload: Vec<u8> = (0..37u32).map(|i| (i * 7 + 3) as u8).collect();
        let s = SpillStore::new(tmpdir("golden")).unwrap();
        // A frame from the previous writer is restored by this reader...
        fs::write(s.dir().join("blob-17.spill"), &golden).unwrap();
        assert_eq!(s.read(BlobId(17)).unwrap(), payload);
        let rec = s.recover().unwrap();
        let adopted = RecoveredFrame {
            blob: BlobId(17),
            meta: b"vmqs:golden".to_vec(),
            size: 37,
        };
        assert_eq!(rec.restorable, vec![adopted]);
        // ...and this writer puts the same bytes down.
        s.write(BlobId(18), b"vmqs:golden", &payload).unwrap();
        assert_eq!(fs::read(s.dir().join("blob-18.spill")).unwrap(), golden);
        cleanup(&s);
    }

    #[test]
    fn roundtrip_preserves_bytes() {
        let s = SpillStore::new(tmpdir("roundtrip")).unwrap();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        s.write(BlobId(7), b"meta!", &payload).unwrap();
        assert_eq!(s.read(BlobId(7)).unwrap(), payload);
        let st = s.stats();
        assert_eq!((st.writes, st.reads, st.read_failures), (1, 1, 0));
        assert_eq!(st.bytes_written, 4096);
        assert_eq!(st.bytes_read, 4096);
        cleanup(&s);
    }

    #[test]
    fn empty_payload_and_meta_roundtrip() {
        let s = SpillStore::new(tmpdir("empty")).unwrap();
        s.write(BlobId(0), &[], &[]).unwrap();
        assert_eq!(s.read(BlobId(0)).unwrap(), Vec::<u8>::new());
        let rec = s.recover().unwrap();
        assert_eq!(rec.restorable.len(), 1);
        assert!(rec.restorable[0].meta.is_empty());
        cleanup(&s);
    }

    #[test]
    fn successful_write_leaves_no_tmp() {
        let s = SpillStore::new(tmpdir("atomic")).unwrap();
        s.write(BlobId(1), b"m", &[3u8; 64]).unwrap();
        let names: Vec<String> = fs::read_dir(s.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["blob-1.spill".to_string()]);
        cleanup(&s);
    }

    #[test]
    fn missing_frame_fails_read() {
        let s = SpillStore::new(tmpdir("missing")).unwrap();
        assert!(s.read(BlobId(1)).is_err());
        assert_eq!(s.stats().read_failures, 1);
        cleanup(&s);
    }

    #[test]
    fn corrupt_frame_fails_crc() {
        let s = SpillStore::new(tmpdir("corrupt")).unwrap();
        s.write(BlobId(3), b"spec", &[1, 2, 3, 4, 5, 6, 7, 8])
            .unwrap();
        let p = s.dir().join("blob-3.spill");
        let intact = fs::read(&p).unwrap();
        // One flipped bit on disk, wherever it lands: a header pad byte
        // (which nothing but the CRC looks at), the meta block, the
        // payload, the trailer itself.
        let (meta_at, payload_at) = (HEADER_LEN, HEADER_LEN + 4);
        for at in [6, meta_at + 1, payload_at + 2, intact.len() - 1] {
            let mut bytes = intact.clone();
            bytes[at] ^= 0x10;
            fs::write(&p, bytes).unwrap();
            let e = s.read(BlobId(3)).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "byte {at}");
            assert!(e.to_string().contains("CRC"), "byte {at}: {e}");
        }
        assert_eq!(s.stats().read_failures, 4);
        fs::write(&p, intact).unwrap();
        assert_eq!(s.read(BlobId(3)).unwrap(), [1, 2, 3, 4, 5, 6, 7, 8]);
        cleanup(&s);
    }

    #[test]
    fn truncated_frame_fails_read() {
        let s = SpillStore::new(tmpdir("truncated")).unwrap();
        s.write(BlobId(4), b"", &[9u8; 100]).unwrap();
        let p = s.dir().join("blob-4.spill");
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        assert!(s.read(BlobId(4)).is_err());
        cleanup(&s);
    }

    #[test]
    fn foreign_file_rejected_by_magic() {
        let s = SpillStore::new(tmpdir("magic")).unwrap();
        fs::write(
            s.dir().join("blob-5.spill"),
            b"definitely not a spill frame, but long enough to parse",
        )
        .unwrap();
        let e = s.read(BlobId(5)).unwrap_err();
        assert!(e.to_string().contains("magic"));
        cleanup(&s);
    }

    #[test]
    fn v1_frame_rejected_by_version() {
        let s = SpillStore::new(tmpdir("v1")).unwrap();
        // A hand-built v1-style frame: old header layout, no trailer.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(1);
        frame.extend_from_slice(&[0u8; 3]);
        frame.extend_from_slice(&8u64.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(&[7u8; 8]);
        fs::write(s.dir().join("blob-6.spill"), frame).unwrap();
        let e = s.read(BlobId(6)).unwrap_err();
        assert!(e.to_string().contains("version"));
        // Recovery sweeps it rather than adopting it.
        let rec = s.recover().unwrap();
        assert!(rec.restorable.is_empty());
        assert_eq!(rec.removed_torn, 1);
        assert!(s.is_empty().unwrap());
        cleanup(&s);
    }

    #[test]
    fn remove_and_clear_leave_no_frames() {
        let s = SpillStore::new(tmpdir("hygiene")).unwrap();
        for i in 0..5u64 {
            s.write(BlobId(i), b"", &[i as u8; 16]).unwrap();
        }
        assert_eq!(s.len().unwrap(), 5);
        s.remove(BlobId(2)).unwrap();
        s.remove(BlobId(2)).unwrap(); // double-remove is a no-op
        assert_eq!(s.len().unwrap(), 4);
        s.clear().unwrap();
        assert!(s.is_empty().unwrap());
        assert_eq!(s.stats().removes, 1);
        cleanup(&s);
    }

    /// Runs `f`, which must panic, and returns the panic's message.
    #[cfg(all(debug_assertions, not(loom)))]
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the lockdep should have panicked");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn frame_write_under_store_guard_panics() {
        use vmqs_core::sync::RwLock;
        let s = SpillStore::new(tmpdir("lockdep-write")).unwrap();
        let store = RwLock::ranked(LockClass::Store, ());
        let msg = panic_message(|| {
            let _ds = store.read();
            let _ = s.write(BlobId(1), b"", &[1u8; 8]);
        });
        assert_eq!(msg, "lockdep: frame write while holding Store");
        // Nothing was written, and the same write outside the guard lands.
        assert!(s.is_empty().unwrap());
        s.write(BlobId(1), b"", &[1u8; 8]).unwrap();
        cleanup(&s);
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn frame_read_under_shard_guard_panics() {
        use vmqs_core::sync::Mutex;
        let s = SpillStore::new(tmpdir("lockdep-read")).unwrap();
        s.write(BlobId(2), b"", &[2u8; 8]).unwrap();
        let shard = Mutex::ranked(LockClass::ShardState, ());
        let msg = panic_message(|| {
            let _g = shard.lock();
            let _ = s.read(BlobId(2));
        });
        assert_eq!(msg, "lockdep: frame read while holding ShardState");
        assert_eq!(s.read(BlobId(2)).unwrap(), [2u8; 8]);
        cleanup(&s);
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn frame_read_under_store_guard_panics() {
        use vmqs_core::sync::RwLock;
        let s = SpillStore::new(tmpdir("lockdep-read-store")).unwrap();
        s.write(BlobId(4), b"", &[4u8; 8]).unwrap();
        let store = RwLock::ranked(LockClass::Store, ());
        let msg = panic_message(|| {
            let _ds = store.read();
            let _ = s.read(BlobId(4));
        });
        assert_eq!(msg, "lockdep: frame read while holding Store");
        // The panic came before the read: nothing was counted, and the
        // same read after the guard goes through.
        assert_eq!(s.stats().reads, 0);
        assert_eq!(s.read(BlobId(4)).unwrap(), [4u8; 8]);
        cleanup(&s);
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn frame_unlink_under_store_guard_panics() {
        use vmqs_core::sync::RwLock;
        let s = SpillStore::new(tmpdir("lockdep-unlink")).unwrap();
        s.write(BlobId(3), b"", &[3u8; 8]).unwrap();
        let store = RwLock::ranked(LockClass::Store, ());
        let msg = panic_message(|| {
            let _ds = store.write();
            let _ = s.remove(BlobId(3));
        });
        assert_eq!(msg, "lockdep: frame unlink while holding Store");
        // The frame is still there, and the same unlink after the guard
        // goes through.
        assert_eq!(s.len().unwrap(), 1);
        s.remove(BlobId(3)).unwrap();
        assert!(s.is_empty().unwrap());
        cleanup(&s);
    }

    #[test]
    fn poisoned_read_fails_deterministically() {
        let cfg = FaultConfig {
            seed: 42,
            ..FaultConfig::none().with_permanent(0.3)
        };
        let s = SpillStore::new(tmpdir("poison")).unwrap().with_faults(cfg);
        let mut poisoned = 0;
        for i in 0..50u64 {
            s.write(BlobId(i), b"", &[i as u8; 8]).unwrap();
            if s.blob_is_poisoned(BlobId(i)) {
                poisoned += 1;
                let e = s.read(BlobId(i)).unwrap_err();
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            } else {
                assert!(s.read(BlobId(i)).is_ok());
            }
        }
        assert!((3..30).contains(&poisoned), "poisoned {poisoned}/50");
        // Pure function: the prediction never disagrees with the read.
        assert_eq!(
            cfg.page_is_poisoned(SPILL_DEVICE, 7),
            s.blob_is_poisoned(BlobId(7))
        );
        cleanup(&s);
    }

    #[test]
    fn overwrite_replaces_frame() {
        let s = SpillStore::new(tmpdir("overwrite")).unwrap();
        s.write(BlobId(9), b"a", &[1u8; 64]).unwrap();
        s.write(BlobId(9), b"b", &[2u8; 32]).unwrap();
        assert_eq!(s.read(BlobId(9)).unwrap(), vec![2u8; 32]);
        assert_eq!(s.len().unwrap(), 1);
        cleanup(&s);
    }

    #[test]
    fn crash_mid_spill_leaves_torn_tmp_and_recovery_sweeps_it() {
        let s = SpillStore::new(tmpdir("crash"))
            .unwrap()
            .with_chaos(ChaosConfig::none().with_crash_spill_write(Some(1)));
        s.write(BlobId(0), b"spec0", &[1u8; 128]).unwrap();
        // Write ordinal 1 dies at the kill-point.
        let e = s.write(BlobId(1), b"spec1", &[2u8; 128]).unwrap_err();
        assert!(e.to_string().contains("crash mid-spill"));
        assert_eq!(s.stats().torn_writes, 1);
        // The .spill namespace never saw the torn frame.
        assert_eq!(s.len().unwrap(), 1);
        assert!(s.dir().join("blob-1.tmp").exists());
        assert!(s.read(BlobId(1)).is_err());
        // The crashed store is dead: later writes fail, and removes no
        // longer touch the directory (a dead process cleans nothing up).
        assert!(s.write(BlobId(2), b"spec2", &[3u8; 64]).is_err());
        s.remove(BlobId(1)).unwrap();
        assert!(s.dir().join("blob-1.tmp").exists());
        // Recovery: the intact frame survives, the torn tmp is deleted,
        // and byte accounting covers exactly the survivors.
        let rec = s.recover().unwrap();
        assert_eq!(rec.removed_tmp, 1);
        assert_eq!(rec.removed_torn, 0);
        assert_eq!(rec.restorable.len(), 1);
        assert_eq!(rec.restorable[0].blob, BlobId(0));
        assert_eq!(rec.restorable[0].meta, b"spec0");
        assert_eq!(rec.bytes_restorable(), 128);
        assert!(!s.dir().join("blob-1.tmp").exists());
        // Idempotent: a second scan finds the same state, removes nothing.
        let rec2 = s.recover().unwrap();
        assert_eq!((rec2.removed_tmp, rec2.removed_torn), (0, 0));
        assert_eq!(rec2.restorable, rec.restorable);
        cleanup(&s);
    }

    #[test]
    fn bit_flipped_frame_fails_read_and_recovery_deletes_it() {
        let s = SpillStore::new(tmpdir("bitflip"))
            .unwrap()
            .with_chaos(ChaosConfig::none().with_bit_flip_frame(Some(0)));
        // The flip happens after the CRC: the write itself "succeeds".
        s.write(BlobId(8), b"spec", &[5u8; 256]).unwrap();
        assert_eq!(s.stats().bit_flips, 1);
        let e = s.read(BlobId(8)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("CRC"));
        let rec = s.recover().unwrap();
        assert!(rec.restorable.is_empty());
        assert_eq!(rec.removed_torn, 1);
        assert!(s.is_empty().unwrap(), "no torn frame survives recovery");
        cleanup(&s);
    }

    #[test]
    fn recovery_reports_frames_in_blob_order_with_meta() {
        let s = SpillStore::new(tmpdir("recover-order")).unwrap();
        for i in [5u64, 1, 9] {
            s.write(BlobId(i), format!("spec-{i}").as_bytes(), &[i as u8; 32])
                .unwrap();
        }
        // An orphan with an unparsable name is swept too.
        fs::write(s.dir().join("blob-xyz.spill"), b"junk").unwrap();
        let rec = s.recover().unwrap();
        assert_eq!(
            rec.restorable.iter().map(|f| f.blob).collect::<Vec<_>>(),
            vec![BlobId(1), BlobId(5), BlobId(9)]
        );
        assert_eq!(rec.restorable[1].meta, b"spec-5");
        assert_eq!(rec.bytes_restorable(), 96);
        assert_eq!(rec.removed_torn, 1);
        cleanup(&s);
    }

    #[test]
    fn recovery_sorts_a_valid_frame_a_torn_tmp_and_a_flipped_frame() {
        let dir = tmpdir("recover-mixed");
        // Three lives of one directory: a clean write, a write whose
        // payload rots after its CRC, a write that dies half-way.
        SpillStore::new(&dir)
            .unwrap()
            .write(BlobId(1), b"spec-1", &[1u8; 40_000])
            .unwrap();
        SpillStore::new(&dir)
            .unwrap()
            .with_chaos(ChaosConfig::none().with_bit_flip_frame(Some(0)))
            .write(BlobId(2), b"spec-2", &[2u8; 40_000])
            .unwrap();
        SpillStore::new(&dir)
            .unwrap()
            .with_chaos(ChaosConfig::none().with_crash_spill_write(Some(0)))
            .write(BlobId(3), b"spec-3", &[3u8; 40_000])
            .unwrap_err();
        // The torn tmp holds exactly the first half of its frame.
        let torn = fs::read(dir.join("blob-3.tmp")).unwrap();
        assert_eq!(torn.len(), (HEADER_LEN + 6 + 40_000 + TRAILER_LEN) / 2);
        assert_eq!(torn[..HEADER_LEN], encode_header(6, 40_000));
        assert!(torn[HEADER_LEN + 6..].iter().all(|&b| b == 3));

        let s = SpillStore::new(&dir).unwrap();
        let rec = s.recover().unwrap();
        let survivor = RecoveredFrame {
            blob: BlobId(1),
            meta: b"spec-1".to_vec(),
            size: 40_000,
        };
        assert_eq!(rec.restorable, vec![survivor]);
        assert_eq!((rec.removed_torn, rec.removed_tmp), (1, 1));
        assert_eq!(s.len().unwrap(), 1);
        assert_eq!(s.read(BlobId(1)).unwrap(), vec![1u8; 40_000]);
        cleanup(&s);
    }

    #[test]
    fn recovery_ignores_foreign_extensions() {
        let s = SpillStore::new(tmpdir("foreign")).unwrap();
        fs::write(s.dir().join("notes.txt"), b"hello").unwrap();
        let rec = s.recover().unwrap();
        assert_eq!(rec, RecoveryReport::default());
        assert!(s.dir().join("notes.txt").exists());
        fs::remove_file(s.dir().join("notes.txt")).unwrap();
        cleanup(&s);
    }
}
