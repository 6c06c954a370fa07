//! The flow table: prioritized match/action entries.
//!
//! Matching selects the highest-priority entry whose match covers the
//! packet; ties break toward the more specific match, then toward the
//! older entry (OVS behaviour). FlowMod semantics:
//!
//! * `Add` — insert; an entry with identical match and priority is
//!   replaced (refreshing its actions and cookie);
//! * `Modify` — rewrite the actions of all entries with identical
//!   match and priority; inserts when none exist (like `ovs-ofctl
//!   mod-flows` with `--strict` off for our exact-match usage);
//! * `Delete` — remove all entries with identical match and priority.

use std::fmt;

use sdn_openflow::flow::{Action, FlowMatch, PacketMeta};
use sdn_openflow::messages::{FlowMod, FlowModCommand};

/// One table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntry {
    /// Priority (higher wins).
    pub priority: u16,
    /// The match.
    pub matcher: FlowMatch,
    /// Actions applied on match.
    pub actions: Vec<Action>,
    /// Controller cookie.
    pub cookie: u64,
    /// Packets that hit this entry.
    pub packets: u64,
    /// Monotonic insertion stamp (older = smaller).
    pub installed_seq: u64,
}

impl FlowEntry {
    /// The `Add` FlowMod that would (re)install this entry. Replaying
    /// it is idempotent: an identical entry is refreshed in place.
    pub fn as_add(&self) -> FlowMod {
        FlowMod {
            command: FlowModCommand::Add,
            priority: self.priority,
            matcher: self.matcher,
            actions: self.actions.clone(),
            cookie: self.cookie,
        }
    }

    /// Content hash of the rule (priority, match, actions, cookie —
    /// *not* counters or install order): FNV-1a over the canonical
    /// wire encoding of [`FlowEntry::as_add`], so controller and
    /// switch agree bit-for-bit on what "the same rule" means.
    pub fn rule_hash(&self) -> u64 {
        let env = sdn_openflow::messages::Envelope::new(
            sdn_types::Xid(0),
            sdn_openflow::messages::OfMessage::FlowMod(self.as_add()),
        );
        fnv1a(&sdn_openflow::codec::encode(&env))
    }
}

/// 64-bit FNV-1a — stable across runs, hosts and compiler versions
/// (unlike `DefaultHasher`), which a wire-carried digest requires.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a FlowMod did to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableChange {
    /// A new entry was inserted.
    Added,
    /// An existing entry was replaced/updated (count).
    Modified(usize),
    /// Entries were removed (count).
    Deleted(usize),
    /// Delete matched nothing.
    NoOp,
}

/// The table.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    seq: u64,
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    /// Apply a FlowMod.
    pub fn apply(&mut self, fm: &FlowMod) -> TableChange {
        match fm.command {
            FlowModCommand::Add => {
                if let Some(e) = self
                    .entries
                    .iter_mut()
                    .find(|e| e.matcher == fm.matcher && e.priority == fm.priority)
                {
                    e.actions.clone_from(&fm.actions);
                    e.cookie = fm.cookie;
                    TableChange::Modified(1)
                } else {
                    self.insert(fm);
                    TableChange::Added
                }
            }
            FlowModCommand::Modify => {
                let mut n = 0;
                for e in self
                    .entries
                    .iter_mut()
                    .filter(|e| e.matcher == fm.matcher && e.priority == fm.priority)
                {
                    e.actions.clone_from(&fm.actions);
                    e.cookie = fm.cookie;
                    n += 1;
                }
                if n == 0 {
                    self.insert(fm);
                    TableChange::Added
                } else {
                    TableChange::Modified(n)
                }
            }
            FlowModCommand::Delete => {
                let before = self.entries.len();
                self.entries
                    .retain(|e| !(e.matcher == fm.matcher && e.priority == fm.priority));
                let removed = before - self.entries.len();
                if removed == 0 {
                    TableChange::NoOp
                } else {
                    TableChange::Deleted(removed)
                }
            }
        }
    }

    fn insert(&mut self, fm: &FlowMod) {
        self.entries.push(FlowEntry {
            priority: fm.priority,
            matcher: fm.matcher,
            actions: fm.actions.clone(),
            cookie: fm.cookie,
            packets: 0,
            installed_seq: self.seq,
        });
        self.seq += 1;
    }

    /// Find the best entry for a packet and record the hit. Returns the
    /// entry's actions (cloned, so the borrow ends) or `None` on a
    /// table miss.
    pub fn lookup(&mut self, pkt: &PacketMeta) -> Option<Vec<Action>> {
        let best = self
            .entries
            .iter_mut()
            .filter(|e| e.matcher.matches(pkt))
            .max_by(|a, b| {
                a.priority
                    .cmp(&b.priority)
                    .then(a.matcher.specificity().cmp(&b.matcher.specificity()))
                    .then(b.installed_seq.cmp(&a.installed_seq).reverse())
            })?;
        best.packets += 1;
        Some(best.actions.clone())
    }

    /// Ordered list of per-rule content hashes (ascending). Install
    /// order does not matter: two tables holding the same rule *set*
    /// report the same list, which is what resync compares.
    pub fn rule_hashes(&self) -> Vec<u64> {
        let mut hashes: Vec<u64> = self.entries.iter().map(FlowEntry::rule_hash).collect();
        hashes.sort_unstable();
        hashes
    }

    /// Single-value digest of the whole table (FNV-1a over the ordered
    /// rule hashes) — a cheap equality check before diffing.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.entries.len() * 8);
        for h in self.rule_hashes() {
            bytes.extend_from_slice(&h.to_be_bytes());
        }
        fnv1a(&bytes)
    }

    /// Peek without recording the hit (diagnostics).
    pub fn peek(&self, pkt: &PacketMeta) -> Option<&FlowEntry> {
        self.entries
            .iter()
            .filter(|e| e.matcher.matches(pkt))
            .max_by(|a, b| {
                a.priority
                    .cmp(&b.priority)
                    .then(a.matcher.specificity().cmp(&b.matcher.specificity()))
                    .then(b.installed_seq.cmp(&a.installed_seq).reverse())
            })
    }
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "flow table ({} entries):", self.len())?;
        let mut sorted: Vec<&FlowEntry> = self.entries.iter().collect();
        sorted.sort_by(|a, b| {
            b.priority
                .cmp(&a.priority)
                .then(a.installed_seq.cmp(&b.installed_seq))
        });
        for e in sorted {
            writeln!(
                f,
                "  prio {:5} {:?} -> {:?} (cookie {:#x}, {} pkts)",
                e.priority, e.matcher, e.actions, e.cookie, e.packets
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::{HostId, PortNo, VersionTag};

    fn fm(command: FlowModCommand, priority: u16, matcher: FlowMatch, out: u32) -> FlowMod {
        FlowMod {
            command,
            priority,
            matcher,
            actions: vec![Action::Output(PortNo(out))],
            cookie: 0,
        }
    }

    fn pkt(dst: u32, tag: Option<VersionTag>) -> PacketMeta {
        PacketMeta {
            in_port: PortNo(1),
            src: HostId(1),
            dst: HostId(dst),
            tag,
        }
    }

    fn packets(t: &FlowTable) -> u64 {
        t.iter().map(|e| e.packets).sum()
    }

    #[test]
    fn add_and_lookup() {
        let mut t = FlowTable::new();
        let m = FlowMatch::dst_host(HostId(2));
        assert_eq!(
            t.apply(&fm(FlowModCommand::Add, 10, m, 3)),
            TableChange::Added
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(&pkt(2, None)),
            Some(vec![Action::Output(PortNo(3))])
        );
        assert_eq!(t.lookup(&pkt(9, None)), None);
        assert_eq!(packets(&t), 1);
    }

    #[test]
    fn add_replaces_identical_match_priority() {
        let mut t = FlowTable::new();
        let m = FlowMatch::dst_host(HostId(2));
        t.apply(&fm(FlowModCommand::Add, 10, m, 3));
        assert_eq!(
            t.apply(&fm(FlowModCommand::Add, 10, m, 4)),
            TableChange::Modified(1)
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(&pkt(2, None)),
            Some(vec![Action::Output(PortNo(4))])
        );
    }

    #[test]
    fn higher_priority_wins() {
        let mut t = FlowTable::new();
        t.apply(&fm(FlowModCommand::Add, 1, FlowMatch::ANY, 9));
        t.apply(&fm(
            FlowModCommand::Add,
            100,
            FlowMatch::dst_host(HostId(2)),
            3,
        ));
        assert_eq!(
            t.lookup(&pkt(2, None)),
            Some(vec![Action::Output(PortNo(3))])
        );
        // non-matching dst falls to the wildcard
        assert_eq!(
            t.lookup(&pkt(7, None)),
            Some(vec![Action::Output(PortNo(9))])
        );
    }

    #[test]
    fn tagged_rule_outranks_untagged_at_higher_priority() {
        // the two-phase-commit table layout
        let mut t = FlowTable::new();
        t.apply(&fm(
            FlowModCommand::Add,
            10,
            FlowMatch::dst_host(HostId(2)),
            1,
        ));
        t.apply(&fm(
            FlowModCommand::Add,
            20,
            FlowMatch::dst_host_tagged(HostId(2), VersionTag::NEW),
            2,
        ));
        assert_eq!(
            t.lookup(&pkt(2, Some(VersionTag::NEW))),
            Some(vec![Action::Output(PortNo(2))])
        );
        assert_eq!(
            t.lookup(&pkt(2, None)),
            Some(vec![Action::Output(PortNo(1))])
        );
    }

    #[test]
    fn modify_updates_or_inserts() {
        let mut t = FlowTable::new();
        let m = FlowMatch::dst_host(HostId(2));
        assert_eq!(
            t.apply(&fm(FlowModCommand::Modify, 10, m, 5)),
            TableChange::Added
        );
        assert_eq!(
            t.apply(&fm(FlowModCommand::Modify, 10, m, 6)),
            TableChange::Modified(1)
        );
        assert_eq!(
            t.lookup(&pkt(2, None)),
            Some(vec![Action::Output(PortNo(6))])
        );
    }

    #[test]
    fn delete_exact() {
        let mut t = FlowTable::new();
        let m = FlowMatch::dst_host(HostId(2));
        t.apply(&fm(FlowModCommand::Add, 10, m, 3));
        t.apply(&fm(FlowModCommand::Add, 11, m, 4));
        assert_eq!(
            t.apply(&fm(FlowModCommand::Delete, 10, m, 0)),
            TableChange::Deleted(1)
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.apply(&fm(FlowModCommand::Delete, 10, m, 0)),
            TableChange::NoOp
        );
    }

    #[test]
    fn miss_on_empty_table() {
        let mut t = FlowTable::new();
        assert_eq!(t.lookup(&pkt(2, None)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn specificity_breaks_priority_ties() {
        let mut t = FlowTable::new();
        t.apply(&fm(FlowModCommand::Add, 10, FlowMatch::ANY, 1));
        t.apply(&fm(
            FlowModCommand::Add,
            10,
            FlowMatch::dst_host(HostId(2)),
            2,
        ));
        assert_eq!(
            t.lookup(&pkt(2, None)),
            Some(vec![Action::Output(PortNo(2))])
        );
    }

    #[test]
    fn peek_does_not_count() {
        let mut t = FlowTable::new();
        t.apply(&fm(FlowModCommand::Add, 10, FlowMatch::ANY, 1));
        assert!(t.peek(&pkt(2, None)).is_some());
        assert_eq!(packets(&t), 0);
    }

    #[test]
    fn display_sorted_by_priority() {
        let mut t = FlowTable::new();
        t.apply(&fm(FlowModCommand::Add, 1, FlowMatch::ANY, 1));
        t.apply(&fm(
            FlowModCommand::Add,
            9,
            FlowMatch::dst_host(HostId(2)),
            2,
        ));
        let s = t.to_string();
        let p9 = s.find("prio     9").unwrap();
        let p1 = s.find("prio     1").unwrap();
        assert!(p9 < p1);
    }
}
