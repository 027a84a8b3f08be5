//! Crash-consistent checkpoint/restore for the DDPM simulator.
//!
//! A checkpoint is one file holding the **complete dynamic state** of a
//! run at an event boundary — [`ddpm_sim::SimSnapshot`] as produced by
//! [`ddpm_sim::Simulation::snapshot`] — plus enough metadata to refuse
//! restoration into the wrong world:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "DDPMCKPT"
//!      8     4  format version (little-endian u32, currently 4)
//!     12     8  scenario fingerprint (FNV-1a of the static description)
//!     20     8  cycle (snapshot.now)
//!     28   4+n  scenario description (length-prefixed UTF-8, may be "")
//!      …   8+m  snapshot payload (length-prefixed, see codec)
//!    end     8  FNV-1a checksum of every preceding byte
//! ```
//!
//! **Write discipline.** [`store`] writes the whole file to a hidden
//! temporary in the same directory, `fsync`s it, renames it into place
//! (`ckpt-<cycle>.ddpm`) and `fsync`s the directory — so a crash at any
//! instant leaves either the complete new checkpoint or no trace of it,
//! never a half-written file under the real name. A torn write that
//! somehow survives (e.g. the temp file renamed by an interfering
//! process) still fails the trailing checksum and is skipped by
//! [`latest`], which falls back to the newest *valid* checkpoint.
//!
//! **Resume contract.** Restoring the decoded snapshot into a freshly
//! built simulation of the same scenario and continuing is bit-identical
//! to the uninterrupted run — same deliveries, drops, violations,
//! statistics, and therefore the same scenario digest. The fingerprint
//! field is what makes "same scenario" checkable: [`latest`] refuses
//! checkpoints whose fingerprint differs from the caller's.

#![warn(missing_docs)]

pub mod codec;
pub mod interrupt;

pub use codec::{decode_snapshot, encode_snapshot, DecodeError};

use ddpm_sim::SimSnapshot;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic: the first eight bytes of every checkpoint.
pub const MAGIC: &[u8; 8] = b"DDPMCKPT";

/// On-disk format version written by this crate.
///
/// * v1 — initial format.
/// * v2 — appends the optional marking-plane adversary state, adds the
///   MarkTamper/AuthReject telemetry tags and the `auth-*` scheme
///   names to the interned vocabulary.
/// * v3 — appends the staged-injection backlog (`pending`,
///   `pending_peak`) and the arena high-water mark
///   (`peak_arena_bytes`), plus the `SimStats` memory-telemetry
///   fields.
/// * v4 — the arena holds only packets in flight, named by handle; the
///   packets waiting for their cycle are the traffic source's, so the
///   snapshot carries the source's cursor, the next free handle and the
///   packets `Simulation::schedule` was given, instead of a row per
///   packet ever scheduled and the staged backlog. Appends
///   `peak_in_flight` to the stats and the snapshot.
///
/// [`load`] also reads version 3.
pub const FORMAT_VERSION: u32 = 4;

/// Oldest on-disk format version [`load`] still reads.
const MIN_FORMAT_VERSION: u32 = 3;

/// Extension (with the `ckpt-` stem prefix) of finished checkpoints.
pub const EXTENSION: &str = "ddpm";

/// The fixed part of the header: magic + version + fingerprint + cycle
/// + the two length prefixes + trailing checksum.
const MIN_FILE_LEN: usize = 8 + 4 + 8 + 8 + 4 + 8 + 8;

/// 64-bit FNV-1a over `bytes` — the same digest family the conformance
/// corpus uses, good enough to detect torn or bit-rotted files (this is
/// an integrity check, not an authenticity one).
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// A streaming [`fnv64`] that is also a [`fmt::Write`] sink, so text
/// can be hashed as it is formatted instead of being rendered into a
/// string first.
///
/// It carries two states over the same bytes: the whole stream
/// ([`Fnv64::finish`]) and the current section
/// ([`Fnv64::end_section`], which returns the section's hash and starts
/// the next one). A run's outcome digest is one overall hash plus one
/// hash per delivered/drop/violation/stats section; one pass of this
/// sink yields all of them, equal to [`fnv64`] of the concatenation
/// and of each section alone.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    whole: u64,
    section: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher that has seen no bytes.
    #[must_use]
    pub fn new() -> Self {
        Self {
            whole: Self::OFFSET,
            section: Self::OFFSET,
        }
    }

    /// Feeds `bytes` to both the stream and the current section.
    pub fn update(&mut self, bytes: &[u8]) {
        let (mut w, mut s) = (self.whole, self.section);
        for &b in bytes {
            w = (w ^ u64::from(b)).wrapping_mul(Self::PRIME);
            s = (s ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        (self.whole, self.section) = (w, s);
    }

    /// Hash of every byte fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.whole
    }

    /// Hash of the bytes fed since the previous `end_section` (or since
    /// [`Fnv64::new`]); the next section starts empty.
    pub fn end_section(&mut self) -> u64 {
        std::mem::replace(&mut self.section, Self::OFFSET)
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Fingerprint of a scenario's static description (any stable string —
/// the drivers use the scenario's canonical debug form). Restoration is
/// refused when fingerprints differ.
#[must_use]
pub fn fingerprint(description: &str) -> u64 {
    fnv64(description.as_bytes())
}

/// A checkpoint as read back from disk.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Fingerprint of the scenario this snapshot belongs to.
    pub fingerprint: u64,
    /// Simulated cycle of the snapshot (`snapshot.now`).
    pub cycle: u64,
    /// The embedded scenario description (empty if the writer had none).
    pub scenario: String,
    /// The complete dynamic simulator state.
    pub snapshot: SimSnapshot,
}

/// Why a checkpoint file was rejected.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read at all.
    Io(io::Error),
    /// Too short, bad magic, or the trailing checksum failed — a torn
    /// or corrupted file.
    Corrupt(&'static str),
    /// A format version this build does not understand.
    UnsupportedVersion(u32),
    /// The embedded fingerprint does not match the caller's scenario.
    FingerprintMismatch {
        /// Fingerprint the caller expects.
        expected: u64,
        /// Fingerprint the file carries.
        found: u64,
    },
    /// The checksummed payload failed structural validation (only
    /// possible across format-vocabulary skew, never from bit rot).
    Decode(DecodeError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different scenario \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::Decode(e) => write!(f, "payload decode: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serialises one checkpoint to its complete file image.
#[must_use]
fn file_image(fingerprint: u64, scenario: &str, snap: &SimSnapshot) -> Vec<u8> {
    let payload = encode_snapshot(snap);
    let mut out = Vec::with_capacity(MIN_FILE_LEN + scenario.len() + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&snap.now.to_le_bytes());
    out.extend_from_slice(&u32::try_from(scenario.len()).expect("scenario fits").to_le_bytes());
    out.extend_from_slice(scenario.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The canonical file name for a checkpoint at `cycle`.
#[must_use]
pub fn file_name(cycle: u64) -> String {
    format!("ckpt-{cycle}.{EXTENSION}")
}

/// Parses a canonical checkpoint file name back into its cycle.
#[must_use]
pub fn parse_cycle(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("ckpt-")?;
    let digits = rest.strip_suffix(&format!(".{EXTENSION}"))?;
    digits.parse().ok()
}

/// Atomically writes a checkpoint of `snap` into `dir` (created if
/// absent), then prunes all but the `keep` most recent checkpoints.
/// Returns the path of the finished file.
///
/// The atomicity discipline: full image to a dot-hidden temporary in
/// the same directory → `fsync` the file → `rename` into place →
/// `fsync` the directory. A crash at any point leaves the previous
/// checkpoints untouched.
///
/// `keep` is clamped to at least 1 (the file just written survives its
/// own retention pass — and keeping ≥2 is what makes a torn *final*
/// write recoverable, which is why [`ddpm_sim::CheckpointConfig`]
/// defaults to 2).
///
/// # Errors
/// Any I/O failure along the way; the directory is left with, at worst,
/// a stale temporary that the next [`store`] overwrites.
pub fn store(
    dir: &Path,
    fingerprint: u64,
    scenario: &str,
    snap: &SimSnapshot,
    keep: usize,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let image = file_image(fingerprint, scenario, snap);
    let tmp = dir.join(format!(".ckpt-{}.tmp", snap.now));
    let final_path = dir.join(file_name(snap.now));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&image)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &final_path)?;
    // Persist the rename itself: fsync the containing directory.
    File::open(dir)?.sync_all()?;
    prune(dir, keep.max(1))?;
    Ok(final_path)
}

/// Deletes all but the `keep` newest (by cycle) checkpoints in `dir`.
fn prune(dir: &Path, keep: usize) -> io::Result<()> {
    let mut cycles = list(dir)?;
    cycles.sort_unstable_by(|a, b| b.cmp(a));
    for &cycle in cycles.iter().skip(keep) {
        // Best-effort: a vanished file is fine, anything else is not.
        match fs::remove_file(dir.join(file_name(cycle))) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// All checkpoint cycles present in `dir` (unsorted). An absent
/// directory reads as empty.
///
/// # Errors
/// Any directory-reading failure other than the directory not existing.
pub fn list(dir: &Path) -> io::Result<Vec<u64>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry?;
        if let Some(cycle) = entry.file_name().to_str().and_then(parse_cycle) {
            out.push(cycle);
        }
    }
    Ok(out)
}

/// Reads and fully validates one checkpoint file.
///
/// # Errors
/// A [`CheckpointError`] naming the first failed validation layer:
/// I/O → magic/length/checksum → version → structural decode.
pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let bytes = fs::read(path)?;
    if bytes.len() < MIN_FILE_LEN {
        return Err(CheckpointError::Corrupt("file shorter than the fixed header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic"));
    }
    let body = &bytes[..bytes.len() - 8];
    let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if fnv64(body) != sum {
        return Err(CheckpointError::Corrupt("checksum mismatch (torn write?)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let cycle = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let scen_len = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    let scen_end = 32usize
        .checked_add(scen_len)
        .filter(|&e| e + 8 <= body.len())
        .ok_or(CheckpointError::Corrupt("scenario length out of range"))?;
    let scenario = std::str::from_utf8(&bytes[32..scen_end])
        .map_err(|_| CheckpointError::Corrupt("scenario is not UTF-8"))?
        .to_string();
    let payload_len =
        u64::from_le_bytes(bytes[scen_end..scen_end + 8].try_into().unwrap()) as usize;
    let payload_start = scen_end + 8;
    if body.len() - payload_start != payload_len {
        return Err(CheckpointError::Corrupt("payload length out of range"));
    }
    let snapshot = codec::decode_snapshot_version(&body[payload_start..], version)
        .map_err(CheckpointError::Decode)?;
    if snapshot.now != cycle {
        return Err(CheckpointError::Corrupt("header cycle != snapshot.now"));
    }
    Ok(Checkpoint {
        fingerprint,
        cycle,
        scenario,
        snapshot,
    })
}

/// Result of scanning a directory for the newest usable checkpoint.
#[derive(Debug)]
pub struct Scan {
    /// The newest checkpoint that loaded and (if requested) matched the
    /// fingerprint, with its path.
    pub best: Option<(PathBuf, Checkpoint)>,
    /// Files that looked like checkpoints but were rejected, newest
    /// first — torn writes, corruption, foreign scenarios. Present so
    /// drivers can warn that they fell back past them.
    pub skipped: Vec<(PathBuf, CheckpointError)>,
}

/// Finds the newest usable checkpoint in `dir`, skipping (and
/// reporting) torn, corrupt, or fingerprint-mismatched files. Pass
/// `expected_fingerprint = None` to accept any scenario (the `resume`
/// driver does this, then rebuilds the world from the embedded
/// scenario description).
///
/// # Errors
/// Only directory-level I/O failures; per-file problems land in
/// [`Scan::skipped`] instead.
pub fn latest(dir: &Path, expected_fingerprint: Option<u64>) -> io::Result<Scan> {
    let mut cycles = list(dir)?;
    cycles.sort_unstable_by(|a, b| b.cmp(a));
    let mut skipped = Vec::new();
    for cycle in cycles {
        let path = dir.join(file_name(cycle));
        match load(&path) {
            Ok(ckpt) => match expected_fingerprint {
                Some(want) if ckpt.fingerprint != want => skipped.push((
                    path,
                    CheckpointError::FingerprintMismatch {
                        expected: want,
                        found: ckpt.fingerprint,
                    },
                )),
                _ => {
                    return Ok(Scan {
                        best: Some((path, ckpt)),
                        skipped,
                    })
                }
            },
            Err(e) => skipped.push((path, e)),
        }
    }
    Ok(Scan {
        best: None,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_snapshot(now: u64) -> SimSnapshot {
        SimSnapshot {
            now,
            events: Vec::new(),
            queue_seq: 0,
            slots: Vec::new(),
            next_handle: 0,
            scheduled: Vec::new(),
            source_cursor: None,
            ports: vec![0; 8],
            stats: ddpm_sim::SimStats::default(),
            delivered: Vec::new(),
            paths: Vec::new(),
            drops: Vec::new(),
            failed_links: Vec::new(),
            failed_switches: Vec::new(),
            degraded_since: None,
            pending_recovery: None,
            live_count: 0,
            injected_total: 0,
            delivered_total: 0,
            dropped_total: 0,
            gone_info: (0, u32::MAX),
            last_progress: 0,
            watchdog_armed: false,
            violations: Vec::new(),
            trace_tail: Vec::new(),
            selftest_fired: false,
            adversary: None,
            peak_arena_bytes: 0,
            peak_in_flight: 0,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ddpm-ckpt-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_load_roundtrip_with_metadata() {
        let dir = tmpdir("roundtrip");
        let fp = fingerprint("scenario: test");
        let path = store(&dir, fp, "{\"name\":\"t\"}", &empty_snapshot(1234), 2).unwrap();
        assert_eq!(path.file_name().unwrap().to_str(), Some("ckpt-1234.ddpm"));
        let ckpt = load(&path).unwrap();
        assert_eq!(ckpt.fingerprint, fp);
        assert_eq!(ckpt.cycle, 1234);
        assert_eq!(ckpt.scenario, "{\"name\":\"t\"}");
        assert_eq!(ckpt.snapshot.now, 1234);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_newest_k() {
        let dir = tmpdir("retention");
        let fp = 7;
        for cycle in [100, 200, 300, 400] {
            store(&dir, fp, "", &empty_snapshot(cycle), 2).unwrap();
        }
        let mut cycles = list(&dir).unwrap();
        cycles.sort_unstable();
        assert_eq!(cycles, vec![300, 400], "keep=2 retains the newest two");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checkpoint_falls_back_to_predecessor() {
        let dir = tmpdir("torn");
        let fp = 99;
        store(&dir, fp, "", &empty_snapshot(100), 3).unwrap();
        let newest = store(&dir, fp, "", &empty_snapshot(200), 3).unwrap();
        // Tear the newest file mid-payload, as a crash during a
        // non-atomic writer would.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let scan = latest(&dir, Some(fp)).unwrap();
        let (path, ckpt) = scan.best.expect("predecessor survives");
        assert_eq!(ckpt.cycle, 100);
        assert_eq!(path, dir.join("ckpt-100.ddpm"));
        assert_eq!(scan.skipped.len(), 1, "the torn file is reported");
        assert!(matches!(scan.skipped[0].1, CheckpointError::Corrupt(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_anywhere_is_detected() {
        let dir = tmpdir("bitflip");
        let path = store(&dir, 1, "s", &empty_snapshot(50), 1).unwrap();
        let clean = fs::read(&path).unwrap();
        for pos in [0, 9, 15, 25, 33, clean.len() / 2, clean.len() - 1] {
            let mut bad = clean.clone();
            bad[pos] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(
                load(&path).is_err(),
                "flip at byte {pos} must not load cleanly"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let dir = tmpdir("fp");
        store(&dir, 0xAAAA, "", &empty_snapshot(10), 1).unwrap();
        let scan = latest(&dir, Some(0xBBBB)).unwrap();
        assert!(scan.best.is_none());
        assert!(matches!(
            scan.skipped[0].1,
            CheckpointError::FingerprintMismatch {
                expected: 0xBBBB,
                found: 0xAAAA
            }
        ));
        // …but an unfingerprinted scan accepts it.
        assert!(latest(&dir, None).unwrap().best.is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsupported_version_is_typed() {
        let dir = tmpdir("version");
        let path = store(&dir, 1, "", &empty_snapshot(10), 1).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let future = FORMAT_VERSION + 1;
        bytes[8..12].copy_from_slice(&future.to_le_bytes());
        // Re-seal so only the version check can fire.
        let sum = fnv64(&bytes[..bytes.len() - 8]);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&path),
            Err(CheckpointError::UnsupportedVersion(v)) if v == future
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(parse_cycle(&file_name(0)), Some(0));
        assert_eq!(parse_cycle(&file_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_cycle("ckpt-12.ddpm"), Some(12));
        assert_eq!(parse_cycle(".ckpt-12.tmp"), None);
        assert_eq!(parse_cycle("ckpt-x.ddpm"), None);
        assert_eq!(parse_cycle("other.ddpm"), None);
    }

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    proptest::proptest! {
        /// Sections of random bytes, each fed in random splits through
        /// both `update` and `fmt::Write`: the stream hash is `fnv64` of
        /// the concatenation and each section's hash is `fnv64` of that
        /// section alone.
        #[test]
        fn streaming_sink_matches_fnv64_over_any_split(
            sections in proptest::collection::vec(
                proptest::collection::vec(0u8..128, 0..64), 0..6),
            cuts in proptest::collection::vec(1usize..9, 1..8),
        ) {
            use std::fmt::Write as _;
            let mut h = Fnv64::new();
            let mut all = Vec::new();
            let mut cut = cuts.iter().cycle();
            for (i, sec) in sections.iter().enumerate() {
                let mut rest = &sec[..];
                while !rest.is_empty() {
                    let (head, tail) = rest.split_at((*cut.next().unwrap()).min(rest.len()));
                    if i % 2 == 0 {
                        h.update(head);
                    } else {
                        // ASCII only, so every split is a char boundary.
                        h.write_str(std::str::from_utf8(head).unwrap()).unwrap();
                    }
                    rest = tail;
                }
                proptest::prop_assert_eq!(h.end_section(), fnv64(sec));
                all.extend_from_slice(sec);
            }
            proptest::prop_assert_eq!(h.finish(), fnv64(&all));
            proptest::prop_assert_eq!(h.end_section(), fnv64(b""), "a fresh section is empty");
        }
    }

    #[test]
    fn missing_directory_reads_as_empty() {
        let dir = tmpdir("missing");
        assert!(list(&dir).unwrap().is_empty());
        assert!(latest(&dir, None).unwrap().best.is_none());
    }
}
