//! Controller-side switch resynchronization.
//!
//! After a switch reconnects the controller cannot trust its table:
//! FlowMods in flight died with the connection, and a rebooted switch
//! returns empty. [`ResyncManager`] keeps a **shadow table** per
//! switch — every FlowMod the controller has sent, applied to a local
//! [`FlowTable`] — and runs the audit-and-repair handshake defined by
//! [`sdn_switch::resync`]:
//!
//! 1. probe: an `EchoRequest` carrying [`DIGEST_PROBE`];
//! 2. audit: the switch's `EchoReply` reports its sorted per-rule hash
//!    list, diffed against the shadow's [`FlowTable::rule_hashes`];
//! 3. repair: exactly the missing rules are replayed as idempotent
//!    `Add` FlowMods ([`FlowEntry::as_add`]), followed by a fresh
//!    probe — the control channel is FIFO, so the next report already
//!    reflects the repair.
//!
//! The loop ends when a report matches the shadow. Probes are
//! retransmitted on a deadline (they ride the same lossy channel as
//! everything else) under a bounded attempt budget; a switch that
//! exhausts it is handed back to the runtime for quarantine.
//!
//! Rules the switch holds that the shadow does not ("extra" rules) are
//! counted but never deleted: a hash is not invertible into a Delete
//! matcher, and in practice extras only appear transiently after a
//! crash recovery whose journal under-reported progress — the rounds
//! that installed them are re-sent and re-recorded, converging the
//! shadow onto them.

use std::collections::BTreeMap;

use sdn_openflow::messages::{Envelope, FlowMod, OfMessage};
use sdn_switch::flow_table::{FlowEntry, FlowTable};
use sdn_switch::resync::{decode_digest_report, DIGEST_PROBE};
use sdn_types::{DpId, IdMap, SimTime, Xid};

use crate::executor::XidAlloc;

/// One in-progress audit of one switch.
#[derive(Debug, Clone)]
struct Audit {
    /// Xid of the newest outstanding probe.
    xid: Xid,
    /// When it went out (retransmission timer base).
    sent: SimTime,
    /// Probes sent so far for this audit (1 = no retransmissions).
    attempts: u32,
}

/// Counters the runtime surfaces through `GET /status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResyncStats {
    /// Audits begun (one per reconnect with a known shadow).
    pub started: u64,
    /// Audits that converged (report matched the shadow).
    pub completed: u64,
    /// Missing rules replayed across all audits.
    pub rules_replayed: u64,
    /// Audits abandoned after the probe budget ran out.
    pub exhausted: u64,
}

/// Shadow tables plus the audit state machine.
#[derive(Debug, Clone, Default)]
pub struct ResyncManager {
    /// Looked up per FlowMod sent; never iterated.
    shadow: IdMap<DpId, FlowTable>,
    /// Iterated in dpid order by the audit timers.
    pending: BTreeMap<DpId, Audit>,
    stats: ResyncStats,
}

impl ResyncManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ResyncStats {
        self.stats
    }

    /// Switches currently being audited.
    pub fn auditing(&self) -> usize {
        self.pending.len()
    }

    /// Whether an audit of `dp` is mid-handshake.
    pub fn audit_in_flight(&self, dp: DpId) -> bool {
        self.pending.contains_key(&dp)
    }

    /// Record a FlowMod the controller sent to `dp`, keeping the
    /// shadow table in lock-step with the intended switch state.
    /// Identical replays are idempotent (Add-replace), so recording a
    /// retransmission is harmless.
    pub fn record(&mut self, dp: DpId, fm: &FlowMod) {
        self.shadow.entry(dp).or_default().apply(fm);
    }

    /// Whether any rule was ever recorded for `dp`.
    pub fn knows(&self, dp: DpId) -> bool {
        self.shadow.contains_key(&dp)
    }

    /// Switches with a shadow table: every switch a rule was ever
    /// recorded for.
    pub fn shadowed(&self) -> usize {
        self.shadow.len()
    }

    /// The intended (shadow) rule-hash list for `dp`, ascending —
    /// what an in-sync switch must report. `None` when the controller
    /// never sent `dp` anything.
    pub fn intended_hashes(&self, dp: DpId) -> Option<Vec<u64>> {
        self.shadow.get(&dp).map(FlowTable::rule_hashes)
    }

    /// Begin (or restart) an audit of `dp`: returns the digest probe
    /// to send. Restarting an in-flight audit is safe — the newest
    /// probe's xid supersedes the old one.
    pub fn begin(&mut self, dp: DpId, now: SimTime, xids: &mut XidAlloc) -> Envelope {
        let xid = xids.alloc();
        if self
            .pending
            .insert(
                dp,
                Audit {
                    xid,
                    sent: now,
                    attempts: 1,
                },
            )
            .is_none()
        {
            self.stats.started += 1;
        }
        Envelope::new(xid, OfMessage::EchoRequest(DIGEST_PROBE.to_vec()))
    }

    /// Whether an `EchoReply` from `dp` with `xid` belongs to an
    /// outstanding probe of ours (and must not be routed to a job).
    pub fn owns(&self, dp: DpId, xid: Xid) -> bool {
        self.pending.get(&dp).is_some_and(|a| a.xid == xid)
    }

    /// Feed the `EchoReply` payload of an owned probe. Returns the
    /// repair commands for `dp`: the missing FlowMods followed by a
    /// fresh probe, or nothing when the switch is in sync (audit
    /// complete). An unparseable payload (a switch that does not speak
    /// the digest extension mirrors the probe back) falls back to full
    /// replay of the shadow.
    pub fn on_report(
        &mut self,
        dp: DpId,
        payload: &[u8],
        now: SimTime,
        xids: &mut XidAlloc,
    ) -> Vec<Envelope> {
        let Some(audit) = self.pending.get(&dp) else {
            return Vec::new();
        };
        let attempts = audit.attempts;
        let shadow = self.shadow.entry(dp).or_default();
        let missing: Vec<FlowMod> = match decode_digest_report(payload) {
            Some(reported) => shadow
                .iter()
                .filter(|e| reported.binary_search(&e.rule_hash()).is_err())
                .map(FlowEntry::as_add)
                .collect(),
            // Digest unsupported: replay everything (idempotent).
            None => shadow.iter().map(FlowEntry::as_add).collect(),
        };
        if missing.is_empty() {
            self.pending.remove(&dp);
            self.stats.completed += 1;
            return Vec::new();
        }
        self.stats.rules_replayed += missing.len() as u64;
        let mut out: Vec<Envelope> = missing
            .into_iter()
            .map(|fm| Envelope::new(xids.alloc(), OfMessage::FlowMod(fm)))
            .collect();
        // Follow-up probe verifies the repair; FIFO ordering means its
        // report already includes the rules above.
        let xid = xids.alloc();
        self.pending.insert(
            dp,
            Audit {
                xid,
                sent: now,
                attempts: attempts + 1,
            },
        );
        out.push(Envelope::new(
            xid,
            OfMessage::EchoRequest(DIGEST_PROBE.to_vec()),
        ));
        out
    }

    /// Drive probe retransmission: every audit whose newest probe is
    /// older than `timeout` is re-probed; audits past `max_attempts`
    /// are abandoned and their switches returned for quarantine.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        timeout: sdn_types::SimDuration,
        max_attempts: u32,
        xids: &mut XidAlloc,
    ) -> (Vec<(DpId, Envelope)>, Vec<DpId>) {
        let mut resend = Vec::new();
        let mut give_up = Vec::new();
        for (&dp, audit) in self.pending.iter_mut() {
            if now < audit.sent + timeout {
                continue;
            }
            if audit.attempts >= max_attempts {
                give_up.push(dp);
                continue;
            }
            audit.xid = xids.alloc();
            audit.sent = now;
            audit.attempts += 1;
            resend.push((
                dp,
                Envelope::new(audit.xid, OfMessage::EchoRequest(DIGEST_PROBE.to_vec())),
            ));
        }
        for dp in &give_up {
            self.pending.remove(dp);
            self.stats.exhausted += 1;
        }
        (resend, give_up)
    }

    /// Drop the audit state for `dp` (e.g. the switch disconnected
    /// again mid-audit; the next reconnect restarts cleanly).
    pub fn abort(&mut self, dp: DpId) {
        self.pending.remove(&dp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_openflow::flow::{Action, FlowMatch};
    use sdn_openflow::messages::FlowModCommand;
    use sdn_switch::resync::encode_digest_report;
    use sdn_types::{HostId, PortNo, SimDuration};

    fn add(dst: u32, out: u32) -> FlowMod {
        FlowMod {
            command: FlowModCommand::Add,
            priority: 100,
            matcher: FlowMatch::dst_host(HostId(dst)),
            actions: vec![Action::Output(PortNo(out))],
            cookie: 1,
        }
    }

    fn report_of(fms: &[FlowMod]) -> Vec<u8> {
        let mut t = FlowTable::new();
        for fm in fms {
            t.apply(fm);
        }
        encode_digest_report(&t)
    }

    #[test]
    fn in_sync_switch_completes_immediately() {
        let mut m = ResyncManager::new();
        let mut xids = XidAlloc::new();
        m.record(DpId(1), &add(2, 1));
        let probe = m.begin(DpId(1), SimTime(0), &mut xids);
        assert!(m.owns(DpId(1), probe.xid));
        let out = m.on_report(DpId(1), &report_of(&[add(2, 1)]), SimTime(1), &mut xids);
        assert!(out.is_empty());
        assert_eq!(m.auditing(), 0);
        assert_eq!(m.stats().completed, 1);
        assert_eq!(m.stats().rules_replayed, 0);
    }

    #[test]
    fn missing_rules_are_replayed_with_a_follow_up_probe() {
        let mut m = ResyncManager::new();
        let mut xids = XidAlloc::new();
        m.record(DpId(1), &add(2, 1));
        m.record(DpId(1), &add(3, 2));
        m.begin(DpId(1), SimTime(0), &mut xids);
        // switch only has the dst=2 rule
        let out = m.on_report(DpId(1), &report_of(&[add(2, 1)]), SimTime(1), &mut xids);
        let fms: Vec<&FlowMod> = out
            .iter()
            .filter_map(|e| match &e.msg {
                OfMessage::FlowMod(fm) => Some(fm),
                _ => None,
            })
            .collect();
        assert_eq!(fms.len(), 1);
        assert_eq!(fms[0].matcher.dst, Some(HostId(3)));
        assert!(
            matches!(out.last().unwrap().msg, OfMessage::EchoRequest(ref p) if p == DIGEST_PROBE),
            "repair ends with a verification probe"
        );
        assert_eq!(m.stats().rules_replayed, 1);
        // the verification report now matches
        let done = m.on_report(
            DpId(1),
            &report_of(&[add(2, 1), add(3, 2)]),
            SimTime(2),
            &mut xids,
        );
        assert!(done.is_empty());
        assert_eq!(m.stats().completed, 1);
    }

    #[test]
    fn unparseable_reply_falls_back_to_full_replay() {
        let mut m = ResyncManager::new();
        let mut xids = XidAlloc::new();
        m.record(DpId(1), &add(2, 1));
        m.record(DpId(1), &add(3, 2));
        m.begin(DpId(1), SimTime(0), &mut xids);
        // a vanilla switch mirrors the probe payload back
        let out = m.on_report(DpId(1), DIGEST_PROBE, SimTime(1), &mut xids);
        let fm_count = out
            .iter()
            .filter(|e| matches!(e.msg, OfMessage::FlowMod(_)))
            .count();
        assert_eq!(fm_count, 2, "full shadow replayed");
    }

    #[test]
    fn probes_retransmit_then_exhaust() {
        let mut m = ResyncManager::new();
        let mut xids = XidAlloc::new();
        m.record(DpId(1), &add(2, 1));
        let p0 = m.begin(DpId(1), SimTime(0), &mut xids);
        let timeout = SimDuration::from_millis(10);
        // not yet due
        let (r, g) = m.on_tick(
            SimTime(0) + SimDuration::from_millis(5),
            timeout,
            3,
            &mut xids,
        );
        assert!(r.is_empty() && g.is_empty());
        // due: re-probe with a fresh xid
        let (r, g) = m.on_tick(
            SimTime(0) + SimDuration::from_millis(11),
            timeout,
            3,
            &mut xids,
        );
        assert_eq!(r.len(), 1);
        assert!(g.is_empty());
        assert_ne!(r[0].1.xid, p0.xid);
        assert!(!m.owns(DpId(1), p0.xid), "superseded probe is dead");
        assert!(m.owns(DpId(1), r[0].1.xid));
        // two more deadlines: attempts 3, then budget gone
        let (r, _) = m.on_tick(
            SimTime(0) + SimDuration::from_millis(22),
            timeout,
            3,
            &mut xids,
        );
        assert_eq!(r.len(), 1);
        let (r, g) = m.on_tick(
            SimTime(0) + SimDuration::from_millis(33),
            timeout,
            3,
            &mut xids,
        );
        assert!(r.is_empty());
        assert_eq!(g, vec![DpId(1)]);
        assert_eq!(m.auditing(), 0);
        assert_eq!(m.stats().exhausted, 1);
    }

    #[test]
    fn stale_and_foreign_replies_are_not_owned() {
        let mut m = ResyncManager::new();
        let mut xids = XidAlloc::new();
        m.record(DpId(1), &add(2, 1));
        let p = m.begin(DpId(1), SimTime(0), &mut xids);
        assert!(!m.owns(DpId(2), p.xid), "wrong switch");
        assert!(!m.owns(DpId(1), Xid(0xdead)), "wrong xid");
        assert!(m.on_report(DpId(2), b"", SimTime(1), &mut xids).is_empty());
    }

    #[test]
    fn delete_keeps_shadow_in_sync() {
        let mut m = ResyncManager::new();
        let mut xids = XidAlloc::new();
        m.record(DpId(1), &add(2, 1));
        let del = FlowMod {
            command: FlowModCommand::Delete,
            priority: 100,
            matcher: FlowMatch::dst_host(HostId(2)),
            actions: vec![],
            cookie: 0,
        };
        m.record(DpId(1), &del);
        assert_eq!(m.intended_hashes(DpId(1)), Some(vec![]));
        m.begin(DpId(1), SimTime(0), &mut xids);
        let out = m.on_report(DpId(1), &report_of(&[]), SimTime(1), &mut xids);
        assert!(out.is_empty(), "empty shadow matches empty switch");
    }
}
