//! Corruption-tolerant on-disk persistence: CRC-framed journals, rotated
//! checkpoints, salvage reads, and deterministic disk-fault hooks.
//!
//! ## Why a write-ahead *mirror*
//!
//! Shard failures in this runtime are thread-level: the driver process
//! survives every chaos fault, and its in-memory supervisor state
//! (recovery base + arrival journal) is authoritative. The disk layer
//! mirrors that state through one buffered [`JournalWriter`] per file so
//! that (a) the persistence format is exercised and verified on every
//! recovery, and (b) injected disk faults — truncation, corruption,
//! latency — are detected by CRC framing, salvaged deterministically, and
//! surfaced, never trusted. A recovery prefers intact disk state (proving
//! the round-trip) and falls back to the in-memory copy otherwise, so a
//! disk fault can change recovery *counters* but never the simulation
//! outcome: same seed + same faults still serialize byte-identically.
//!
//! ## Frame format
//!
//! Every record is `[len: u32 LE][crc32: u32 LE][payload: len bytes]`,
//! where the checksum is IEEE CRC-32 over the payload. A reader walks
//! frames to end-of-file; a short header, short payload, or checksum
//! mismatch ends the walk at the last intact record (torn-write salvage),
//! with the dropped byte count reported rather than silently discarded.

use crate::chaos::{DiskFaultKind, DiskFaultSpec, DiskTarget};
use mec_sim::{EngineState, Job, Metrics, Phase, StationSlice};
use mec_topology::units::DataRate;
use mec_topology::StationId;
use mec_workload::codec::{parse_requests, write_requests};
use mec_workload::demand::DemandOutcome;
use mec_workload::request::Request;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of framing (`len` + `crc32`) preceding every record payload.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Largest payload a frame may carry; a length field above this is treated
/// as corruption rather than an instruction to allocate gigabytes.
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `data` (the polynomial zip/png use).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Frames one payload as a length-prefixed, checksummed record.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Typed journal failures: io errors are transient (worth retrying),
/// corruption is permanent (salvage instead).
#[derive(Debug)]
pub enum JournalError {
    /// The operating system failed the read or write.
    Io(std::io::Error),
    /// A frame failed its structural or checksum validation.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Corrupt { offset, detail } => {
                write!(f, "journal corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The single buffered write path for every journal file the runtime
/// touches. Errors propagate to the caller; flush and sync points are
/// explicit so the runtime controls exactly when bytes are durable.
#[derive(Debug)]
pub struct JournalWriter {
    inner: BufWriter<File>,
    path: PathBuf,
}

impl JournalWriter {
    /// Opens `path` fresh (truncating any previous contents).
    ///
    /// # Errors
    ///
    /// Propagates the underlying open failure.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            inner: BufWriter::new(file),
            path: path.to_path_buf(),
        })
    }

    /// Opens `path` for appending (creating it if missing).
    ///
    /// # Errors
    ///
    /// Propagates the underlying open failure.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            inner: BufWriter::new(file),
            path: path.to_path_buf(),
        })
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one CRC-framed record (buffered; call [`Self::flush`] to
    /// push it to the OS).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn append_record(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.inner.write_all(&frame_record(payload))
    }

    /// Appends raw bytes without framing — for line-oriented files (the
    /// ops journal) that must stay readable by plain-text consumers.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn write_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_all(bytes)
    }

    /// Flushes buffered records to the OS.
    ///
    /// # Errors
    ///
    /// Propagates the underlying flush failure.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    /// Flushes and then forces the OS to push the file to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying flush or sync failure.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.inner.flush()?;
        self.inner.get_ref().sync_all()
    }
}

/// Outcome of a salvage walk over a framed file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Salvage {
    /// Every intact payload, in file order.
    pub records: Vec<Vec<u8>>,
    /// Whether the walk ended on a bad frame rather than clean EOF.
    pub corrupt: bool,
    /// Bytes past the last intact record (truncated away by salvage).
    pub dropped_bytes: u64,
    /// What was wrong with the first bad frame, if any.
    pub detail: Option<String>,
}

/// Walks CRC frames in `bytes`, keeping every intact record and stopping
/// at the first torn or corrupt frame. Mid-file garbage is never skipped
/// over — everything from the first bad frame on is reported as dropped.
pub fn read_records(bytes: &[u8]) -> Salvage {
    let mut salvage = Salvage::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < FRAME_HEADER_BYTES {
            salvage.corrupt = true;
            salvage.detail = Some(format!("torn frame header ({} bytes)", rest.len()));
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_BYTES {
            salvage.corrupt = true;
            salvage.detail = Some(format!("implausible record length {len}"));
            break;
        }
        let body = &rest[FRAME_HEADER_BYTES..];
        if body.len() < len as usize {
            salvage.corrupt = true;
            salvage.detail = Some(format!("torn payload ({} of {len} bytes)", body.len()));
            break;
        }
        let payload = &body[..len as usize];
        if crc32(payload) != crc {
            salvage.corrupt = true;
            salvage.detail = Some("checksum mismatch".to_string());
            break;
        }
        salvage.records.push(payload.to_vec());
        offset += FRAME_HEADER_BYTES + len as usize;
    }
    salvage.dropped_bytes = (bytes.len() - offset) as u64;
    salvage
}

/// Reads and salvages one framed file. A missing file reads as empty and
/// intact (nothing was ever persisted there).
///
/// # Errors
///
/// Propagates io errors other than not-found.
pub fn read_file(path: &Path) -> Result<Salvage, JournalError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Salvage::default()),
        Err(e) => return Err(e.into()),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(read_records(&bytes))
}

/// [`read_file`] with bounded retry: io errors back off and retry (they
/// may be transient), corruption does not (re-reading bad bytes yields
/// the same bad bytes — salvage handles those). Returns the salvage plus
/// how many retries it took.
///
/// # Errors
///
/// Propagates the final io error once attempts are exhausted.
pub fn read_file_with_retry(
    path: &Path,
    attempts: u32,
    backoff_ms: u64,
) -> Result<(Salvage, u64), JournalError> {
    let mut retries = 0u64;
    let mut delay = backoff_ms;
    loop {
        match read_file(path) {
            Ok(salvage) => return Ok((salvage, retries)),
            Err(e) if retries + 1 < u64::from(attempts.max(1)) => {
                retries += 1;
                std::thread::sleep(std::time::Duration::from_millis(delay));
                delay = delay.saturating_mul(2);
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
}

fn request_header() -> &'static str {
    static HEADER: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    HEADER
        .get_or_init(|| write_requests(&[]).trim_end().to_string())
        .as_str()
}

fn request_row(r: &Request) -> String {
    let text = write_requests(std::slice::from_ref(r));
    text.lines().nth(1).unwrap_or_default().to_string()
}

fn parse_request_row(row: &str) -> Result<Request, String> {
    let text = format!("{}\n{row}\n", request_header());
    let mut parsed = parse_requests(&text).map_err(|e| e.to_string())?;
    match parsed.len() {
        1 => Ok(parsed.remove(0)),
        n => Err(format!("expected 1 request row, got {n}")),
    }
}

/// Encodes one journaled arrival: the admission slot plus the localized
/// request, reusing the workload CSV codec (bit-exact f64 round-trip).
pub fn encode_arrival(slot: u64, request: &Request) -> Vec<u8> {
    format!("{slot}\n{}", request_row(request)).into_bytes()
}

/// Decodes an arrival record written by [`encode_arrival`].
///
/// # Errors
///
/// Returns [`JournalError::Corrupt`] on any structural mismatch.
pub fn decode_arrival(payload: &[u8]) -> Result<(u64, Request), JournalError> {
    let corrupt = |detail: String| JournalError::Corrupt { offset: 0, detail };
    let text = std::str::from_utf8(payload).map_err(|e| corrupt(format!("not utf-8: {e}")))?;
    let (slot_line, row) = text
        .split_once('\n')
        .ok_or_else(|| corrupt("missing request row".to_string()))?;
    let slot: u64 = slot_line
        .trim()
        .parse()
        .map_err(|_| corrupt(format!("bad slot '{slot_line}'")))?;
    let request = parse_request_row(row.trim_end()).map_err(corrupt)?;
    Ok((slot, request))
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

fn parse_opt_u64(s: &str) -> Result<Option<u64>, String> {
    if s == "-" {
        Ok(None)
    } else {
        s.parse().map(Some).map_err(|_| format!("bad number '{s}'"))
    }
}

fn phase_tag(phase: Phase) -> char {
    match phase {
        Phase::Waiting => 'W',
        Phase::Running => 'R',
        Phase::Completed => 'C',
        Phase::Expired => 'E',
        Phase::Aborted => 'A',
    }
}

fn phase_of(tag: &str) -> Result<Phase, String> {
    Ok(match tag {
        "W" => Phase::Waiting,
        "R" => Phase::Running,
        "C" => Phase::Completed,
        "E" => Phase::Expired,
        "A" => Phase::Aborted,
        other => return Err(format!("bad phase tag '{other}'")),
    })
}

fn encode_job(out: &mut String, job: &Job) {
    use std::fmt::Write as _;
    let realized = job.realized().map_or_else(
        || "-".to_string(),
        |o| format!("{}:{}:{}", o.rate.as_mbps(), o.prob, o.reward),
    );
    let first_station = job
        .first_station()
        .map_or_else(|| "-".to_string(), |s| s.index().to_string());
    let _ = writeln!(out, "req {}", request_row(job.request()));
    let _ = writeln!(
        out,
        "job {} {realized} {} {first_station} {} {} {}",
        phase_tag(job.phase()),
        fmt_opt_u64(job.first_service()),
        job.remaining_mb_raw(),
        fmt_opt_u64(job.completed_slot()),
        job.stalled_slots(),
    );
}

fn decode_job(req_line: &str, job_line: &str) -> Result<Job, String> {
    let row = req_line
        .strip_prefix("req ")
        .ok_or_else(|| format!("expected 'req' line, got '{req_line}'"))?;
    let request = parse_request_row(row)?;
    let body = job_line
        .strip_prefix("job ")
        .ok_or_else(|| format!("expected 'job' line, got '{job_line}'"))?;
    let fields: Vec<&str> = body.split(' ').collect();
    if fields.len() != 7 {
        return Err(format!("expected 7 job fields, got {}", fields.len()));
    }
    let phase = phase_of(fields[0])?;
    let realized = if fields[1] == "-" {
        None
    } else {
        let parts: Vec<&str> = fields[1].split(':').collect();
        if parts.len() != 3 {
            return Err(format!("bad realized demand '{}'", fields[1]));
        }
        let rate: f64 = parts[0].parse().map_err(|_| "bad realized rate")?;
        let prob: f64 = parts[1].parse().map_err(|_| "bad realized prob")?;
        let reward: f64 = parts[2].parse().map_err(|_| "bad realized reward")?;
        Some(DemandOutcome {
            rate: DataRate::mbps(rate),
            prob,
            reward,
        })
    };
    let first_service = parse_opt_u64(fields[2])?;
    let first_station = parse_opt_u64(fields[3])?.map(|i| StationId::from(i as usize));
    let remaining_mb: f64 = fields[4]
        .parse()
        .map_err(|_| format!("bad remaining_mb '{}'", fields[4]))?;
    let completed_slot = parse_opt_u64(fields[5])?;
    let stalled_slots: u64 = fields[6]
        .parse()
        .map_err(|_| format!("bad stalled_slots '{}'", fields[6]))?;
    Ok(Job::from_parts(
        request,
        phase,
        realized,
        first_service,
        first_station,
        remaining_mb,
        completed_slot,
        stalled_slots,
    ))
}

fn join_f64s(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Encodes an engine checkpoint as format v3: header fields (v3 adds
/// `next_id`, the first id not yet issued), then the live jobs grouped
/// per home station so a station's slice can be carved out of the
/// serialized form without decoding unrelated stations. Terminal jobs are
/// not part of an engine state, so the size tracks the jobs in flight.
pub fn encode_state(state: &EngineState) -> Vec<u8> {
    use std::fmt::Write as _;
    let metrics = &state.metrics;
    let mut out = String::from("mec-ckpt v3\n");
    let _ = writeln!(out, "next_slot {}", state.next_slot);
    let _ = writeln!(out, "next_id {}", state.next_id);
    let _ = writeln!(out, "slots_run {}", state.slots_run);
    let _ = writeln!(out, "finished {}", u8::from(state.finished));
    let _ = writeln!(out, "rng_word_pos {}", state.rng_word_pos);
    let _ = writeln!(
        out,
        "busy {} {}",
        state.busy_mhz_slots.len(),
        join_f64s(&state.busy_mhz_slots)
    );
    let _ = writeln!(
        out,
        "metrics {} {} {} {} {}",
        metrics.total_reward(),
        metrics.completed(),
        metrics.expired(),
        metrics.unserved(),
        metrics.aborted(),
    );
    let _ = writeln!(
        out,
        "latencies {} {}",
        metrics.latencies_ms().len(),
        join_f64s(metrics.latencies_ms())
    );
    // The per-station partition: jobs grouped by home, id order restored
    // on decode by sorting (each request row carries its id).
    let stations = state.busy_mhz_slots.len();
    let _ = writeln!(out, "stations {stations}");
    for station in 0..stations {
        let members: Vec<&Job> = state
            .jobs
            .iter()
            .filter(|j| j.request().home().index() == station)
            .collect();
        let _ = writeln!(out, "station {station} {}", members.len());
        for job in members {
            encode_job(&mut out, job);
        }
    }
    out.push_str("end\n");
    out.into_bytes()
}

fn corrupt(detail: String) -> JournalError {
    JournalError::Corrupt { offset: 0, detail }
}

/// Pops the next line and strips its expected tag, returning the
/// space-separated value fields.
fn next_tagged<'a>(
    lines: &mut std::str::Lines<'a>,
    tag: &str,
) -> Result<Vec<&'a str>, JournalError> {
    let line = lines
        .next()
        .ok_or_else(|| corrupt(format!("missing '{tag}' line")))?;
    let rest = line
        .strip_prefix(tag)
        .ok_or_else(|| corrupt(format!("expected '{tag}', got '{line}'")))?;
    Ok(rest.split(' ').filter(|s| !s.is_empty()).collect())
}

fn u64_field(vals: &[&str], tag: &str) -> Result<u64, JournalError> {
    vals.first()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(format!("bad '{tag}' value")))
}

fn f64_list(vals: &[&str], tag: &str) -> Result<Vec<f64>, JournalError> {
    let count: usize = vals
        .first()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(format!("bad '{tag}' count")))?;
    if vals.len() != count + 1 {
        return Err(corrupt(format!(
            "'{tag}' declares {count} values, carries {}",
            vals.len().saturating_sub(1)
        )));
    }
    vals[1..]
        .iter()
        .map(|v| {
            v.parse()
                .map_err(|_| corrupt(format!("bad '{tag}' value '{v}'")))
        })
        .collect()
}

/// Decodes a checkpoint written by [`encode_state`].
///
/// # Errors
///
/// Returns [`JournalError::Corrupt`] on any structural mismatch.
pub fn decode_state(payload: &[u8]) -> Result<EngineState, JournalError> {
    let text = std::str::from_utf8(payload).map_err(|e| corrupt(format!("not utf-8: {e}")))?;
    let mut lines = text.lines();
    let version = next_tagged(&mut lines, "mec-ckpt")?;
    if version != ["v3"] {
        return Err(corrupt(format!(
            "unsupported checkpoint version {version:?}"
        )));
    }
    let next_slot = u64_field(&next_tagged(&mut lines, "next_slot")?, "next_slot")?;
    let next_id = u64_field(&next_tagged(&mut lines, "next_id")?, "next_id")? as usize;
    let slots_run = u64_field(&next_tagged(&mut lines, "slots_run")?, "slots_run")?;
    let finished = u64_field(&next_tagged(&mut lines, "finished")?, "finished")? != 0;
    let rng_word_pos = u64_field(&next_tagged(&mut lines, "rng_word_pos")?, "rng_word_pos")?;
    let busy_mhz_slots = f64_list(&next_tagged(&mut lines, "busy")?, "busy")?;
    let m = next_tagged(&mut lines, "metrics")?;
    if m.len() != 5 {
        return Err(corrupt(format!(
            "expected 5 metrics fields, got {}",
            m.len()
        )));
    }
    let total_reward: f64 = m[0]
        .parse()
        .map_err(|_| corrupt("bad total_reward".to_string()))?;
    let usize_field = |v: &str, tag: &str| -> Result<usize, JournalError> {
        v.parse().map_err(|_| corrupt(format!("bad '{tag}' value")))
    };
    let completed = usize_field(m[1], "completed")?;
    let expired = usize_field(m[2], "expired")?;
    let unserved = usize_field(m[3], "unserved")?;
    let aborted = usize_field(m[4], "aborted")?;
    let latencies_ms = f64_list(&next_tagged(&mut lines, "latencies")?, "latencies")?;
    let metrics = Metrics::from_parts(
        total_reward,
        latencies_ms,
        completed,
        expired,
        unserved,
        aborted,
    );
    let station_groups = u64_field(&next_tagged(&mut lines, "stations")?, "stations")? as usize;
    let mut jobs: Vec<Job> = Vec::new();
    for _ in 0..station_groups {
        let header = next_tagged(&mut lines, "station")?;
        if header.len() != 2 {
            return Err(corrupt("malformed station group header".to_string()));
        }
        let members: usize = header[1]
            .parse()
            .map_err(|_| corrupt("bad station job count".to_string()))?;
        for _ in 0..members {
            let req_line = lines
                .next()
                .ok_or_else(|| corrupt("truncated job record".to_string()))?;
            let job_line = lines
                .next()
                .ok_or_else(|| corrupt("truncated job record".to_string()))?;
            jobs.push(decode_job(req_line, job_line).map_err(corrupt)?);
        }
    }
    match lines.next() {
        Some("end") => {}
        other => return Err(corrupt(format!("missing 'end' trailer, got {other:?}"))),
    }
    // Increasing request-id order is the engine invariant the per-station
    // grouping deliberately gave up on disk; restore it here. Ids must be
    // distinct and issued (below `next_id`), and only live jobs belong in
    // an engine state.
    jobs.sort_by_key(|j| j.id().index());
    if let Some(w) = jobs.windows(2).find(|w| w[0].id() == w[1].id()) {
        return Err(corrupt(format!("job id {} appears twice", w[0].id())));
    }
    if let Some(job) = jobs.iter().find(|j| j.id().index() >= next_id) {
        return Err(corrupt(format!(
            "job id {} not below next_id {next_id}",
            job.id()
        )));
    }
    if let Some(job) = jobs.iter().find(|j| !j.is_live()) {
        return Err(corrupt(format!(
            "job {} is {:?}, not live",
            job.id(),
            job.phase()
        )));
    }
    Ok(EngineState {
        next_slot,
        slots_run,
        jobs,
        next_id,
        busy_mhz_slots,
        metrics,
        finished,
        rng_word_pos,
    })
}

/// Encodes a handoff slice with the same job codec as checkpoints — used
/// both for moved-state byte accounting and for tests that pin the wire
/// size of a handoff.
pub fn encode_slice(slice: &StationSlice) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "slice {} {}", slice.station.index(), slice.jobs.len());
    for job in &slice.jobs {
        encode_job(&mut out, job);
    }
    out.into_bytes()
}

/// Incident counters from one shard's disk-side recovery attempt.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiskIncidents {
    /// Frames or payloads that failed CRC / structural validation.
    pub corrupt_records: u64,
    /// Bytes truncated past the last intact record (torn-write salvage).
    pub salvaged_bytes: u64,
    /// Io-error read retries spent before a read succeeded or gave up.
    pub retries: u64,
    /// Checkpoint reads that fell back from the current file to `.prev`.
    pub checkpoint_fallbacks: u64,
}

impl DiskIncidents {
    /// Whether the disk state read back completely clean.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }

    fn absorb(&mut self, other: &DiskIncidents) {
        self.corrupt_records += other.corrupt_records;
        self.salvaged_bytes += other.salvaged_bytes;
        self.retries += other.retries;
        self.checkpoint_fallbacks += other.checkpoint_fallbacks;
    }
}

/// What a shard's on-disk state yielded at recovery time.
#[derive(Debug)]
pub struct DiskRecovery {
    /// Newest intact checkpoint (current file, else `.prev`), if any.
    pub checkpoint: Option<EngineState>,
    /// Every intact journaled arrival, in append order.
    pub journal: Vec<(u64, Request)>,
    /// What went wrong (or didn't) while reading it all back.
    pub incidents: DiskIncidents,
}

const READ_ATTEMPTS: u32 = 3;
const READ_BACKOFF_MS: u64 = 5;

/// One state directory: per-shard CRC-framed arrival journals plus
/// rotated checkpoint files, all written through [`JournalWriter`]s.
///
/// Layout under the root: `shard-K.journal`, `shard-K.ckpt`,
/// `shard-K.ckpt.prev`, and `shard-K.ckpt.tmp` during atomic replacement.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    journals: Vec<Option<JournalWriter>>,
    slow_ms: Vec<u64>,
}

impl DiskStore {
    /// Creates (or truncates) the state directory for `shards` shards,
    /// opening one journal writer per shard eagerly so even an empty run
    /// leaves well-formed (empty) journal files behind.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation or file-open failures.
    pub fn create(dir: &Path, shards: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut journals = Vec::with_capacity(shards);
        for shard in 0..shards {
            let path = dir.join(format!("shard-{shard}.journal"));
            journals.push(Some(JournalWriter::create(&path)?));
            // Stale checkpoints from a previous run must not survive into
            // this one: recovery would otherwise read a checkpoint for a
            // different seed/workload and (correctly) fall back, polluting
            // the incident counters.
            for suffix in ["ckpt", "ckpt.prev", "ckpt.tmp"] {
                let stale = dir.join(format!("shard-{shard}.{suffix}"));
                match std::fs::remove_file(&stale) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            journals,
            slow_ms: vec![0; shards],
        })
    }

    /// The directory this store writes under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of one shard's arrival journal.
    pub fn journal_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.journal"))
    }

    /// Path of one shard's current checkpoint.
    pub fn checkpoint_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.ckpt"))
    }

    /// Path of one shard's previous (rotated-out) checkpoint.
    pub fn prev_checkpoint_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.ckpt.prev"))
    }

    fn consume_slowdown(&mut self, shard: usize) {
        if let Some(ms) = self.slow_ms.get_mut(shard) {
            if *ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(*ms));
                *ms = 0;
            }
        }
    }

    /// Arms a one-shot latency injection: the next disk operation for
    /// `shard` sleeps `ms` milliseconds first (chaos `slowdisk:`).
    pub fn slow_next(&mut self, shard: usize, ms: u64) {
        if let Some(slot) = self.slow_ms.get_mut(shard) {
            *slot = ms;
        }
    }

    /// Appends one admitted arrival to the shard's journal (buffered).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn append_arrival(
        &mut self,
        shard: usize,
        slot: u64,
        request: &Request,
    ) -> std::io::Result<()> {
        self.consume_slowdown(shard);
        if let Some(Some(writer)) = self.journals.get_mut(shard) {
            writer.append_record(&encode_arrival(slot, request))?;
        }
        Ok(())
    }

    /// Flushes every shard journal — the per-slot durability point.
    ///
    /// # Errors
    ///
    /// Propagates the first flush failure.
    pub fn flush(&mut self) -> std::io::Result<()> {
        for writer in self.journals.iter_mut().flatten() {
            writer.flush()?;
        }
        Ok(())
    }

    /// Atomically replaces the shard's checkpoint with `state` (rotating
    /// the old one to `.prev`), synced to stable storage. Returns the
    /// framed byte size written.
    ///
    /// # Errors
    ///
    /// Propagates write, sync, or rename failures.
    pub fn write_checkpoint(&mut self, shard: usize, state: &EngineState) -> std::io::Result<u64> {
        self.consume_slowdown(shard);
        let current = self.checkpoint_path(shard);
        let prev = self.prev_checkpoint_path(shard);
        let tmp = self.dir.join(format!("shard-{shard}.ckpt.tmp"));
        let payload = encode_state(state);
        let mut writer = JournalWriter::create(&tmp)?;
        writer.append_record(&payload)?;
        writer.sync()?;
        drop(writer);
        if current.exists() {
            std::fs::rename(&current, &prev)?;
        }
        std::fs::rename(&tmp, &current)?;
        Ok((payload.len() + FRAME_HEADER_BYTES) as u64)
    }

    /// Rewrites the shard's journal keeping only records with slot
    /// `>= before_slot` — mirrors the in-memory prune that follows a
    /// checkpoint adoption, so the file stays bounded by the checkpoint
    /// interval instead of growing with run length.
    ///
    /// # Errors
    ///
    /// Propagates read or rewrite failures.
    pub fn prune_journal(&mut self, shard: usize, before_slot: u64) -> std::io::Result<()> {
        let path = self.journal_path(shard);
        if let Some(slot) = self.journals.get_mut(shard) {
            if let Some(writer) = slot.as_mut() {
                writer.flush()?;
            }
            *slot = None;
        }
        let salvage = match read_file(&path) {
            Ok(s) => s,
            Err(JournalError::Io(e)) => return Err(e),
            // A corrupt variant is unreachable from read_file, but keep
            // the journal usable either way: rewrite what salvaged.
            Err(JournalError::Corrupt { .. }) => Salvage::default(),
        };
        let tmp = self.dir.join(format!("shard-{shard}.journal.tmp"));
        let mut writer = JournalWriter::create(&tmp)?;
        for record in &salvage.records {
            match decode_arrival(record) {
                Ok((slot, _)) if slot >= before_slot => writer.append_record(record)?,
                Ok(_) => {}
                // Undecodable-but-CRC-valid records cannot be produced by
                // this writer; drop them rather than resurrect garbage.
                Err(_) => {}
            }
        }
        writer.sync()?;
        drop(writer);
        std::fs::rename(&tmp, &path)?;
        if let Some(slot) = self.journals.get_mut(shard) {
            *slot = Some(JournalWriter::append(&path)?);
        }
        Ok(())
    }

    /// Rewrites the shard's journal from scratch with `entries` — the
    /// heal path after a recovery found the on-disk copy diverged from
    /// the authoritative in-memory journal.
    ///
    /// # Errors
    ///
    /// Propagates write, sync, or rename failures.
    pub fn rewrite_journal(
        &mut self,
        shard: usize,
        entries: &[(u64, Request)],
    ) -> std::io::Result<()> {
        let path = self.journal_path(shard);
        if let Some(slot) = self.journals.get_mut(shard) {
            *slot = None;
        }
        let tmp = self.dir.join(format!("shard-{shard}.journal.tmp"));
        let mut writer = JournalWriter::create(&tmp)?;
        for (slot, request) in entries {
            writer.append_record(&encode_arrival(*slot, request))?;
        }
        writer.sync()?;
        drop(writer);
        std::fs::rename(&tmp, &path)?;
        if let Some(slot) = self.journals.get_mut(shard) {
            *slot = Some(JournalWriter::append(&path)?);
        }
        Ok(())
    }

    /// Reads a shard's persisted state back for recovery: newest intact
    /// checkpoint plus the salvaged arrival journal. Infallible by
    /// design — every failure mode degrades to "less disk state" with the
    /// incident counters telling the story, because the caller always has
    /// the authoritative in-memory copy to fall back on.
    pub fn recover_shard(&mut self, shard: usize) -> DiskRecovery {
        self.consume_slowdown(shard);
        let mut incidents = DiskIncidents::default();
        // Journal writers buffer; everything must be on disk before the
        // read-back or the tail would look torn.
        if let Some(Some(writer)) = self.journals.get_mut(shard) {
            if writer.flush().is_err() {
                incidents.retries += 1;
            }
        }
        let checkpoint = self.read_checkpoint(shard, &mut incidents);
        let mut journal = Vec::new();
        match read_file_with_retry(&self.journal_path(shard), READ_ATTEMPTS, READ_BACKOFF_MS) {
            Ok((salvage, retries)) => {
                incidents.retries += retries;
                if salvage.corrupt {
                    incidents.corrupt_records += 1;
                    incidents.salvaged_bytes += salvage.dropped_bytes;
                }
                for record in &salvage.records {
                    match decode_arrival(record) {
                        Ok(pair) => journal.push(pair),
                        Err(_) => {
                            // Same torn-write rule one level up: stop at
                            // the first undecodable record, count it.
                            incidents.corrupt_records += 1;
                            break;
                        }
                    }
                }
            }
            Err(JournalError::Io(_)) => incidents.retries += u64::from(READ_ATTEMPTS) - 1,
            Err(JournalError::Corrupt { .. }) => incidents.corrupt_records += 1,
        }
        DiskRecovery {
            checkpoint,
            journal,
            incidents,
        }
    }

    fn read_checkpoint(&self, shard: usize, incidents: &mut DiskIncidents) -> Option<EngineState> {
        let current = self.checkpoint_path(shard);
        let prev = self.prev_checkpoint_path(shard);
        match Self::read_one_checkpoint(&current) {
            Ok(state) => return state,
            Err(i) => {
                incidents.absorb(&i);
                incidents.checkpoint_fallbacks += 1;
            }
        }
        match Self::read_one_checkpoint(&prev) {
            Ok(state) => state,
            Err(i) => {
                incidents.absorb(&i);
                None
            }
        }
    }

    /// Ok(None): file absent (nothing checkpointed yet — not an incident).
    /// Err: file present but unreadable/corrupt, with the counters to add.
    fn read_one_checkpoint(path: &Path) -> Result<Option<EngineState>, DiskIncidents> {
        if !path.exists() {
            return Ok(None);
        }
        let mut incidents = DiskIncidents::default();
        let salvage = match read_file_with_retry(path, READ_ATTEMPTS, READ_BACKOFF_MS) {
            Ok((salvage, retries)) => {
                incidents.retries += retries;
                salvage
            }
            Err(JournalError::Io(_)) => {
                incidents.retries += u64::from(READ_ATTEMPTS) - 1;
                return Err(incidents);
            }
            Err(JournalError::Corrupt { .. }) => {
                incidents.corrupt_records += 1;
                return Err(incidents);
            }
        };
        if salvage.corrupt || salvage.records.len() != 1 {
            incidents.corrupt_records += 1;
            incidents.salvaged_bytes += salvage.dropped_bytes;
            return Err(incidents);
        }
        match decode_state(&salvage.records[0]) {
            Ok(state) => Ok(Some(state)),
            Err(_) => {
                incidents.corrupt_records += 1;
                Err(incidents)
            }
        }
    }

    /// Applies one chaos disk fault to this store's files. Returns the
    /// number of bytes affected (0 for latency injection).
    ///
    /// # Errors
    ///
    /// Propagates io failures manipulating the target file.
    pub fn apply_fault(&mut self, fault: &DiskFaultSpec) -> std::io::Result<u64> {
        let path = match fault.target {
            DiskTarget::Journal => self.journal_path(fault.shard),
            DiskTarget::Checkpoint => self.checkpoint_path(fault.shard),
        };
        match fault.kind {
            DiskFaultKind::SlowDisk { ms } => {
                self.slow_next(fault.shard, ms);
                Ok(0)
            }
            DiskFaultKind::Truncate { bytes } => {
                // The buffered writer must not later append past the cut
                // at a stale offset; flush first so the cut is final.
                if let Some(Some(writer)) = self.journals.get_mut(fault.shard) {
                    if matches!(fault.target, DiskTarget::Journal) {
                        writer.flush()?;
                    }
                }
                let file = OpenOptions::new().write(true).open(&path)?;
                let len = file.metadata()?.len();
                let cut = bytes.min(len);
                file.set_len(len - cut)?;
                file.sync_all()?;
                if matches!(fault.target, DiskTarget::Journal) {
                    if let Some(slot) = self.journals.get_mut(fault.shard) {
                        *slot = Some(JournalWriter::append(&path)?);
                    }
                }
                Ok(cut)
            }
            DiskFaultKind::Corrupt { bytes } => {
                if let Some(Some(writer)) = self.journals.get_mut(fault.shard) {
                    if matches!(fault.target, DiskTarget::Journal) {
                        writer.flush()?;
                    }
                }
                let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                let len = file.metadata()?.len();
                if len == 0 {
                    return Ok(0);
                }
                let span = bytes.min(len);
                let start = len - span;
                file.seek(SeekFrom::Start(start))?;
                let mut buf = vec![0u8; span as usize];
                file.read_exact(&mut buf)?;
                for b in &mut buf {
                    *b ^= 0x5A;
                }
                file.seek(SeekFrom::Start(start))?;
                file.write_all(&buf)?;
                file.sync_all()?;
                Ok(span)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::{Engine, SlotConfig};
    use mec_topology::TopologyBuilder;
    use mec_workload::WorkloadBuilder;

    fn sample_requests(n: usize) -> Vec<Request> {
        let topo = TopologyBuilder::new(6).seed(5).build();
        WorkloadBuilder::new(&topo).seed(5).count(n).build()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip_and_salvage_is_clean() {
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"gamma rays"];
        let mut bytes = Vec::new();
        for p in &payloads {
            bytes.extend_from_slice(&frame_record(p));
        }
        let salvage = read_records(&bytes);
        assert!(!salvage.corrupt);
        assert_eq!(salvage.dropped_bytes, 0);
        assert_eq!(salvage.records, payloads);
    }

    #[test]
    fn torn_tail_salvages_to_last_valid_record() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame_record(b"first"));
        bytes.extend_from_slice(&frame_record(b"second"));
        let full = bytes.len();
        bytes.truncate(full - 3); // tear the second record's payload
        let salvage = read_records(&bytes);
        assert!(salvage.corrupt);
        assert_eq!(salvage.records, vec![b"first".to_vec()]);
        assert!(salvage.dropped_bytes > 0);
        assert!(salvage.detail.unwrap().contains("torn payload"));
    }

    #[test]
    fn flipped_bytes_fail_crc_and_stop_the_walk() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame_record(b"keep me"));
        let tail_at = bytes.len();
        bytes.extend_from_slice(&frame_record(b"corrupt me"));
        bytes.extend_from_slice(&frame_record(b"unreachable"));
        bytes[tail_at + FRAME_HEADER_BYTES] ^= 0xFF;
        let salvage = read_records(&bytes);
        assert!(salvage.corrupt);
        assert_eq!(salvage.records, vec![b"keep me".to_vec()]);
        assert_eq!(salvage.detail.as_deref(), Some("checksum mismatch"));
    }

    #[test]
    fn implausible_length_is_corruption_not_allocation() {
        let mut bytes = frame_record(b"ok");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let salvage = read_records(&bytes);
        assert_eq!(salvage.records.len(), 1);
        assert!(salvage.corrupt);
        assert!(salvage.detail.unwrap().contains("implausible"));
    }

    #[test]
    fn arrival_records_roundtrip_bit_exact() {
        for (i, r) in sample_requests(10).into_iter().enumerate() {
            let payload = encode_arrival(i as u64 * 3, &r);
            let (slot, back) = decode_arrival(&payload).unwrap();
            assert_eq!(slot, i as u64 * 3);
            assert_eq!(back, r);
        }
    }

    /// A checkpoint taken at the first slot where some jobs have retired
    /// and some are still running.
    fn stepped_state() -> EngineState {
        let topo = TopologyBuilder::new(6).seed(5).build();
        let paths = topo.shortest_paths();
        let requests = sample_requests(12);
        let mut policy = mec_core::policy_from_name("Greedy", 100).unwrap();
        let mut engine = Engine::new(&topo, &paths, requests, SlotConfig::default());
        loop {
            engine.step(policy.as_mut()).unwrap();
            let running = engine.jobs().iter().any(|j| j.phase() == Phase::Running);
            if engine.metrics().completed() > 0 && running {
                return engine.checkpoint();
            }
        }
    }

    #[test]
    fn engine_state_roundtrips_through_v3_codec() {
        let state = stepped_state();
        assert_eq!(state.next_id, 12);
        assert!(state.jobs.len() < 12, "completed jobs retired");
        let payload = encode_state(&state);
        let header = format!("mec-ckpt v3\nnext_slot {}\nnext_id 12\n", state.next_slot);
        assert!(payload.starts_with(header.as_bytes()));
        let back = decode_state(&payload).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn v2_checkpoint_is_a_typed_error() {
        // The v2 layout: no `next_id` line, every job ever injected.
        let v3 = String::from_utf8(encode_state(&stepped_state())).unwrap();
        let v2 = v3
            .replacen("mec-ckpt v3", "mec-ckpt v2", 1)
            .replacen("next_id 12\n", "", 1);
        let err = decode_state(v2.as_bytes()).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }));
        assert!(err.to_string().contains("unsupported checkpoint version"));
    }

    #[test]
    fn v3_decode_rejects_ids_outside_the_live_contract() {
        let state = stepped_state();
        let text = String::from_utf8(encode_state(&state)).unwrap();
        // Every live id must be below `next_id`.
        let lowered = text.replacen("next_id 12\n", "next_id 1\n", 1);
        let err = decode_state(lowered.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("not below next_id"), "{err}");
        // Only waiting and running jobs belong in an engine state.
        let retired = text.replacen("\njob R ", "\njob C ", 1);
        assert_ne!(retired, text, "the sample holds a running job");
        let err = decode_state(retired.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("not live"), "{err}");
    }

    #[test]
    fn corrupt_state_payload_reports_typed_error() {
        let err = decode_state(b"mec-ckpt v9\n").unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }));
        assert!(err.to_string().contains("unsupported"));
        let err = decode_state(b"not a checkpoint").unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }));
    }

    #[test]
    fn store_persists_and_recovers_journal_and_checkpoint() {
        let dir = std::env::temp_dir().join(format!(
            "mec-journal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DiskStore::create(&dir, 2).unwrap();
        let requests = sample_requests(4);
        for (i, r) in requests.iter().enumerate() {
            store.append_arrival(i % 2, i as u64, r).unwrap();
        }
        store.flush().unwrap();
        let state = EngineState::genesis(3);
        let bytes = store.write_checkpoint(0, &state).unwrap();
        assert!(bytes > 0);
        let rec = store.recover_shard(0);
        assert!(rec.incidents.is_clean(), "{:?}", rec.incidents);
        assert_eq!(rec.checkpoint, Some(state));
        assert_eq!(rec.journal.len(), 2);
        assert_eq!(rec.journal[0].1, requests[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotation_falls_back_to_prev_when_current_truncated() {
        let dir = std::env::temp_dir().join(format!(
            "mec-journal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DiskStore::create(&dir, 1).unwrap();
        let old = EngineState::genesis(2);
        let mut newer = EngineState::genesis(2);
        newer.next_slot = 8;
        newer.slots_run = 8;
        store.write_checkpoint(0, &old).unwrap();
        store.write_checkpoint(0, &newer).unwrap();
        // Tear the current checkpoint; .prev must win.
        let fault = DiskFaultSpec {
            shard: 0,
            slot: 0,
            target: DiskTarget::Checkpoint,
            kind: DiskFaultKind::Truncate { bytes: 9 },
        };
        store.apply_fault(&fault).unwrap();
        let rec = store.recover_shard(0);
        assert_eq!(rec.checkpoint, Some(old));
        assert_eq!(rec.incidents.checkpoint_fallbacks, 1);
        assert!(rec.incidents.corrupt_records >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_corruption_salvages_prefix_and_counts() {
        let dir = std::env::temp_dir().join(format!(
            "mec-journal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DiskStore::create(&dir, 1).unwrap();
        let requests = sample_requests(3);
        for (i, r) in requests.iter().enumerate() {
            store.append_arrival(0, i as u64, r).unwrap();
        }
        store.flush().unwrap();
        let fault = DiskFaultSpec {
            shard: 0,
            slot: 0,
            target: DiskTarget::Journal,
            kind: DiskFaultKind::Corrupt { bytes: 5 },
        };
        store.apply_fault(&fault).unwrap();
        let rec = store.recover_shard(0);
        assert_eq!(rec.journal.len(), 2, "last record corrupted away");
        assert!(rec.incidents.corrupt_records >= 1);
        assert!(rec.incidents.salvaged_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_rewrites_journal_suffix() {
        let dir = std::env::temp_dir().join(format!(
            "mec-journal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DiskStore::create(&dir, 1).unwrap();
        let requests = sample_requests(6);
        for (i, r) in requests.iter().enumerate() {
            store.append_arrival(0, i as u64, r).unwrap();
        }
        store.prune_journal(0, 4).unwrap();
        let rec = store.recover_shard(0);
        assert!(rec.incidents.is_clean());
        assert_eq!(rec.journal.len(), 2);
        assert_eq!(rec.journal[0].0, 4);
        // The writer stays usable after the rewrite.
        store.append_arrival(0, 9, &requests[0]).unwrap();
        let rec = store.recover_shard(0);
        assert_eq!(rec.journal.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_encoding_is_nonempty_for_moved_jobs() {
        let requests = sample_requests(2);
        let slice = StationSlice {
            station: 0.into(),
            jobs: requests.into_iter().map(Job::new).collect(),
        };
        let bytes = encode_slice(&slice);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("slice 0 2\n"));
        assert_eq!(text.matches("req ").count(), 2);
    }
}
