//! Write-ahead journal for controller crash recovery.
//!
//! The concurrent runtime's state — queued jobs, active executors,
//! round cursors — lives in memory; a controller crash would orphan
//! every in-flight update. The journal records just enough to rebuild
//! that state: admissions (with the full compiled update), dispatch,
//! per-round commits, and terminal outcomes. Because FlowMods are
//! idempotent and rounds are barrier-fenced, recovery does not need a
//! byte-exact replica — re-sending a round the journal under-reported
//! is harmless, so records can be appended *after* their action takes
//! effect and a crash between the two only costs duplicate sends.
//!
//! Three backends behind one enum (an enum, not a trait object, so
//! [`ConcurrentRuntime`](crate::runtime::ConcurrentRuntime) keeps its
//! derived `Clone`/`Debug`):
//!
//! * [`Journal::Disabled`] — zero cost, no recovery (the default);
//! * [`Journal::mem`] — in-process record list, for tests and the
//!   simulator's crash/recover fault;
//! * [`Journal::file`] — append-only line-oriented file that survives
//!   the process. Updates are serialized as hex-encoded OpenFlow wire
//!   frames, so the on-disk format is stable across hosts for the
//!   same reason the resync digests are.

use std::fmt::Write as _;
use std::path::PathBuf;

use sdn_openflow::codec;
use sdn_openflow::messages::Envelope;
use sdn_types::{DpId, SimDuration, SimTime, Xid};

use crate::compile::{CompiledRound, CompiledUpdate};
use crate::runtime::admission::Priority;
use crate::runtime::conflict::JobId;
use crate::runtime::submit::TenantId;

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A rule installed outside any job (initial table population).
    /// Recovery replays these into the resync shadow so a post-crash
    /// audit still knows the baseline.
    Baseline {
        /// The switch.
        dp: DpId,
        /// The installing message, as an encoded wire frame.
        frame: Vec<u8>,
    },
    /// An update entered the admission queue.
    Admitted {
        /// Runtime-assigned id.
        id: JobId,
        /// The full compiled update (recovery re-queues it).
        update: CompiledUpdate,
        /// Its admission lane.
        priority: Priority,
        /// The submitting tenant (recovery rebuilds quota usage).
        tenant: TenantId,
        /// Latest useful launch time, when the caller set one.
        deadline: Option<SimTime>,
        /// Submission time.
        at: SimTime,
    },
    /// The update left the queue and dispatched its first round.
    Started {
        /// The job.
        id: JobId,
        /// Dispatch time.
        at: SimTime,
    },
    /// Every barrier (and payload ack) of `round` arrived — the round
    /// is fenced network-wide and will never be re-sent.
    RoundCommitted {
        /// The job.
        id: JobId,
        /// The 0-based round index.
        round: usize,
        /// Commit time.
        at: SimTime,
    },
    /// All rounds committed.
    Completed {
        /// The job.
        id: JobId,
        /// Completion time.
        at: SimTime,
    },
    /// The update failed (retransmission budget, quarantine).
    Failed {
        /// The job.
        id: JobId,
        /// Failure time.
        at: SimTime,
    },
    /// Two-phase protocol (fabric journal only): every involved shard
    /// accepted its footprint reservation for a cross-shard update.
    Prepared {
        /// The coordinator-assigned job.
        id: JobId,
        /// The shards holding reservations.
        shards: Vec<u32>,
        /// Prepare time.
        at: SimTime,
    },
    /// Two-phase protocol (fabric journal only): the prepared update
    /// was handed to the coordinator runtime for execution. Recovery
    /// re-establishes the shard reservations for jobs the coordinator
    /// still has in flight.
    XCommitted {
        /// The fabric ticket.
        id: JobId,
        /// The job id the coordinator runtime assigned at commit —
        /// recovery uses it to ask the coordinator whether the job is
        /// still in flight (and so needs its reservations back).
        coord: JobId,
        /// Commit time.
        at: SimTime,
    },
    /// Two-phase protocol (fabric journal only): the prepare was
    /// unwound — every shard reservation released, the update never
    /// executed. Also written during recovery for updates caught
    /// between prepare and commit by a crash.
    Aborted {
        /// The coordinator-assigned job.
        id: JobId,
        /// Abort time.
        at: SimTime,
    },
}

/// The journal: an append-only record log behind one of three
/// backends.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Journal {
    /// No journalling; recovery impossible.
    #[default]
    Disabled,
    /// In-memory record list.
    Mem(Vec<JournalRecord>),
    /// Append-only file of one serialized record per line.
    File {
        /// The log path (created on first append).
        path: PathBuf,
        /// Records appended by this handle (cheap `len`).
        appended: u64,
    },
}

impl Journal {
    /// An in-memory journal.
    pub fn mem() -> Self {
        Journal::Mem(Vec::new())
    }

    /// A file-backed journal at `path`. An existing log is extended,
    /// so recovery followed by further journalling reuses one path.
    pub fn file(path: impl Into<PathBuf>) -> Self {
        Journal::File {
            path: path.into(),
            appended: 0,
        }
    }

    /// Whether appends are recorded at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, Journal::Disabled)
    }

    /// Append one record. File I/O errors are swallowed: the journal
    /// is a recovery aid, and failing the control plane because the
    /// log disk hiccuped would invert that priority.
    pub fn append(&mut self, rec: &JournalRecord) {
        match self {
            Journal::Disabled => {}
            Journal::Mem(recs) => recs.push(rec.clone()),
            Journal::File { path, appended } => {
                use std::io::Write;
                let line = serialize(rec);
                let ok = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&*path)
                    .and_then(|mut f| writeln!(f, "{line}"));
                if ok.is_ok() {
                    *appended += 1;
                }
            }
        }
    }

    /// All records, oldest first. For the file backend this re-reads
    /// the log, skipping unparseable lines — including lines that are
    /// not UTF-8 — so a torn final write from a crash mid-append, or a
    /// damaged byte, loses that record, never the log.
    pub fn records(&self) -> Vec<JournalRecord> {
        match self {
            Journal::Disabled => Vec::new(),
            Journal::Mem(recs) => recs.clone(),
            Journal::File { path, .. } => std::fs::read(path)
                .map(|bytes| {
                    bytes
                        .split(|&b| b == b'\n')
                        .filter_map(|line| std::str::from_utf8(line).ok())
                        .filter_map(parse)
                        .collect()
                })
                .unwrap_or_default(),
        }
    }

    /// Number of records this handle knows about (for the file
    /// backend: appended by this handle, not the on-disk total).
    pub fn len(&self) -> usize {
        match self {
            Journal::Disabled => 0,
            Journal::Mem(recs) => recs.len(),
            Journal::File { appended, .. } => *appended as usize,
        }
    }

    /// Whether no record was appended through this handle.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.is_ascii() || !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// A compiled round as one token: `pre<ns>` plus `,<dp>:<hexframe>`
/// per message (frames encoded with xid 0 — the executor re-stamps
/// xids at dispatch anyway).
fn serialize_round(r: &CompiledRound) -> String {
    let mut s = format!("pre{}", r.pre_delay.as_nanos());
    for (dp, msg) in &r.msgs {
        let frame = codec::encode(&Envelope::new(Xid(0), msg.clone()));
        let _ = write!(s, ",{}:{}", dp.0, hex(&frame));
    }
    s
}

fn parse_round(tok: &str) -> Option<CompiledRound> {
    let mut parts = tok.split(',');
    let pre = parts.next()?.strip_prefix("pre")?.parse::<u64>().ok()?;
    let mut msgs = Vec::new();
    for p in parts {
        let (dp, frame) = p.split_once(':')?;
        let env = codec::decode(&unhex(frame)?).ok()?;
        msgs.push((DpId(dp.parse().ok()?), env.msg));
    }
    Some(CompiledRound {
        msgs,
        pre_delay: SimDuration::from_nanos(pre),
    })
}

fn serialize(rec: &JournalRecord) -> String {
    match rec {
        JournalRecord::Baseline { dp, frame } => {
            format!("baseline dp={} frame={}", dp.0, hex(frame))
        }
        JournalRecord::Admitted {
            id,
            update,
            priority,
            tenant,
            deadline,
            at,
        } => {
            let prio = match priority {
                Priority::Normal => "normal",
                Priority::High => "high",
            };
            let rounds: Vec<String> = update.rounds.iter().map(serialize_round).collect();
            let mut line = format!("admitted id={} at={} prio={}", id.0, at.0, prio);
            if tenant.0 != 0 {
                let _ = write!(line, " tenant={}", tenant.0);
            }
            if let Some(d) = deadline {
                let _ = write!(line, " deadline={}", d.0);
            }
            let _ = write!(
                line,
                " label={} rounds={}",
                hex(update.label.as_bytes()),
                rounds.join(";"),
            );
            line
        }
        JournalRecord::Started { id, at } => format!("started id={} at={}", id.0, at.0),
        JournalRecord::RoundCommitted { id, round, at } => {
            format!("round id={} n={round} at={}", id.0, at.0)
        }
        JournalRecord::Completed { id, at } => format!("completed id={} at={}", id.0, at.0),
        JournalRecord::Failed { id, at } => format!("failed id={} at={}", id.0, at.0),
        JournalRecord::Prepared { id, shards, at } => {
            let list: Vec<String> = shards.iter().map(|s| s.to_string()).collect();
            format!("prepared id={} at={} shards={}", id.0, at.0, list.join(";"))
        }
        JournalRecord::XCommitted { id, coord, at } => {
            format!("xcommitted id={} coord={} at={}", id.0, coord.0, at.0)
        }
        JournalRecord::Aborted { id, at } => format!("aborted id={} at={}", id.0, at.0),
    }
}

/// Pull `key=` off the token or bail.
fn field<'a>(tok: Option<&'a str>, key: &str) -> Option<&'a str> {
    tok?.strip_prefix(key)?.strip_prefix('=')
}

fn parse(line: &str) -> Option<JournalRecord> {
    let mut toks = line.split(' ');
    let kind = toks.next()?;
    match kind {
        "baseline" => {
            let dp = field(toks.next(), "dp")?.parse().ok()?;
            let frame = unhex(field(toks.next(), "frame")?)?;
            Some(JournalRecord::Baseline {
                dp: DpId(dp),
                frame,
            })
        }
        "admitted" => {
            let id = field(toks.next(), "id")?.parse().ok()?;
            let at = field(toks.next(), "at")?.parse().ok()?;
            let priority = match field(toks.next(), "prio")? {
                "high" => Priority::High,
                _ => Priority::Normal,
            };
            // tenant and deadline are omitted at their defaults (and
            // absent from pre-fabric logs): probe before committing to
            // the label token
            let mut tenant = TenantId(0);
            let mut deadline = None;
            let mut tok = toks.next();
            if let Some(t) = field(tok, "tenant") {
                tenant = TenantId(t.parse().ok()?);
                tok = toks.next();
            }
            if let Some(d) = field(tok, "deadline") {
                deadline = Some(SimTime(d.parse().ok()?));
                tok = toks.next();
            }
            let label = String::from_utf8(unhex(field(tok, "label")?)?).ok()?;
            let rounds_tok = field(toks.next(), "rounds")?;
            let rounds = if rounds_tok.is_empty() {
                Vec::new()
            } else {
                rounds_tok
                    .split(';')
                    .map(parse_round)
                    .collect::<Option<Vec<_>>>()?
            };
            Some(JournalRecord::Admitted {
                id: JobId(id),
                update: CompiledUpdate { label, rounds },
                priority,
                tenant,
                deadline,
                at: SimTime(at),
            })
        }
        "started" | "completed" | "failed" | "aborted" => {
            let id = JobId(field(toks.next(), "id")?.parse().ok()?);
            let at = SimTime(field(toks.next(), "at")?.parse().ok()?);
            Some(match kind {
                "started" => JournalRecord::Started { id, at },
                "completed" => JournalRecord::Completed { id, at },
                "failed" => JournalRecord::Failed { id, at },
                _ => JournalRecord::Aborted { id, at },
            })
        }
        "xcommitted" => {
            let id = JobId(field(toks.next(), "id")?.parse().ok()?);
            let coord = JobId(field(toks.next(), "coord")?.parse().ok()?);
            let at = SimTime(field(toks.next(), "at")?.parse().ok()?);
            Some(JournalRecord::XCommitted { id, coord, at })
        }
        "prepared" => {
            let id = JobId(field(toks.next(), "id")?.parse().ok()?);
            let at = SimTime(field(toks.next(), "at")?.parse().ok()?);
            let shards_tok = field(toks.next(), "shards")?;
            let shards = if shards_tok.is_empty() {
                Vec::new()
            } else {
                shards_tok
                    .split(';')
                    .map(|s| s.parse().ok())
                    .collect::<Option<Vec<u32>>>()?
            };
            Some(JournalRecord::Prepared { id, shards, at })
        }
        "round" => {
            let id = JobId(field(toks.next(), "id")?.parse().ok()?);
            let round = field(toks.next(), "n")?.parse().ok()?;
            let at = SimTime(field(toks.next(), "at")?.parse().ok()?);
            Some(JournalRecord::RoundCommitted { id, round, at })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_openflow::flow::{Action, FlowMatch};
    use sdn_openflow::messages::{FlowMod, FlowModCommand, OfMessage};
    use sdn_types::{HostId, PortNo};

    fn update() -> CompiledUpdate {
        CompiledUpdate {
            label: "ring rotate k=2".into(),
            rounds: vec![
                CompiledRound {
                    msgs: vec![
                        (
                            DpId(3),
                            OfMessage::FlowMod(FlowMod {
                                command: FlowModCommand::Add,
                                priority: 100,
                                matcher: FlowMatch::dst_host(HostId(2)),
                                actions: vec![Action::Output(PortNo(1))],
                                cookie: 7,
                            }),
                        ),
                        (
                            DpId(5),
                            OfMessage::FlowMod(FlowMod {
                                command: FlowModCommand::Delete,
                                priority: 100,
                                matcher: FlowMatch::dst_host(HostId(2)),
                                actions: vec![],
                                cookie: 0,
                            }),
                        ),
                    ],
                    pre_delay: SimDuration::ZERO,
                },
                CompiledRound {
                    msgs: vec![],
                    pre_delay: SimDuration::from_millis(5),
                },
            ],
        }
    }

    fn all_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Baseline {
                dp: DpId(1),
                frame: codec::encode(&Envelope::new(
                    Xid(0),
                    OfMessage::FlowMod(FlowMod {
                        command: FlowModCommand::Add,
                        priority: 100,
                        matcher: FlowMatch::dst_host(HostId(9)),
                        actions: vec![Action::Output(PortNo(2))],
                        cookie: 1,
                    }),
                ))
                .to_vec(),
            },
            JournalRecord::Admitted {
                id: JobId(1),
                update: update(),
                priority: Priority::High,
                tenant: TenantId(4),
                deadline: Some(SimTime(90)),
                at: SimTime(10),
            },
            JournalRecord::Started {
                id: JobId(1),
                at: SimTime(20),
            },
            JournalRecord::RoundCommitted {
                id: JobId(1),
                round: 0,
                at: SimTime(30),
            },
            JournalRecord::Completed {
                id: JobId(1),
                at: SimTime(40),
            },
            JournalRecord::Failed {
                id: JobId(2),
                at: SimTime(50),
            },
        ]
    }

    #[test]
    fn every_record_survives_a_text_round_trip() {
        for rec in all_records() {
            let line = serialize(&rec);
            assert_eq!(parse(&line).as_ref(), Some(&rec), "line: {line}");
        }
    }

    #[test]
    fn mem_journal_returns_records_in_order() {
        let mut j = Journal::mem();
        for rec in all_records() {
            j.append(&rec);
        }
        assert_eq!(j.records(), all_records());
        assert_eq!(j.len(), all_records().len());
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::default();
        assert!(!j.is_enabled());
        j.append(&all_records()[0]);
        assert!(j.is_empty());
        assert!(j.records().is_empty());
    }

    #[test]
    fn file_journal_survives_reopen_and_ignores_torn_tail() {
        let dir = std::env::temp_dir().join(format!("sdn-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::file(&path);
            for rec in all_records() {
                j.append(&rec);
            }
            assert_eq!(j.len(), all_records().len());
        }
        // simulate a crash mid-append: a torn half-line at the tail
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "admitted id=9 at=").unwrap();
        }
        let j2 = Journal::file(&path);
        assert_eq!(j2.records(), all_records(), "torn tail dropped, log kept");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_journal_skips_a_non_utf8_line_and_keeps_the_rest() {
        let dir = std::env::temp_dir().join(format!("sdn-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-non-utf8.log");
        let recs = &all_records()[2..4];
        let mut log = serialize(&recs[0]).into_bytes();
        log.extend_from_slice(b"\nstarted id=\xff at=1\n");
        log.extend_from_slice(serialize(&recs[1]).as_bytes());
        log.push(b'\n');
        std::fs::write(&path, log).unwrap();
        assert_eq!(
            Journal::file(&path).records(),
            recs,
            "one bad byte, one record"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_journal_skips_a_line_of_unknown_kind_and_keeps_the_rest() {
        let dir = std::env::temp_dir().join(format!("sdn-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-unknown-kind.log");
        let recs = &all_records()[1..3];
        // `shed` and the three seat-migration kinds are records of
        // deleted features: old logs carry them, and they skip
        let log = format!(
            "{}\nshed id=3 at=5\nmigbegin dp=7 from=1 to=2 at=70\n\
             migcommit dp=7 from=1 to=2 at=80\nmigabort dp=9 at=90\n{}\n",
            serialize(&recs[0]),
            serialize(&recs[1])
        );
        std::fs::write(&path, log).unwrap();
        assert_eq!(
            Journal::file(&path).records(),
            recs,
            "the unknown line is skipped, the records around it recover"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_ascii_hex_is_rejected_not_a_panic() {
        assert_eq!(unhex("aé0"), None);
        assert_eq!(parse("baseline dp=1 frame=aé0"), None);
    }

    #[test]
    fn empty_rounds_and_empty_updates_serialize() {
        let rec = JournalRecord::Admitted {
            id: JobId(3),
            update: CompiledUpdate {
                label: String::new(),
                rounds: vec![],
            },
            priority: Priority::Normal,
            tenant: TenantId(0),
            deadline: None,
            at: SimTime(0),
        };
        let line = serialize(&rec);
        assert_eq!(parse(&line), Some(rec));
    }

    #[test]
    fn pre_fabric_admitted_lines_still_parse() {
        // a PR 7 log has no tenant/deadline tokens; recovery must read
        // it as the default tenant with no deadline
        let line = "admitted id=5 at=12 prio=normal label=61 rounds=";
        let rec = parse(line).expect("legacy line parses");
        let JournalRecord::Admitted {
            id,
            tenant,
            deadline,
            ..
        } = rec
        else {
            panic!("wrong kind");
        };
        assert_eq!(id, JobId(5));
        assert_eq!(tenant, TenantId(0));
        assert_eq!(deadline, None);
    }
}
