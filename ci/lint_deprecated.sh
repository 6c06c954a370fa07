#!/usr/bin/env bash
# Fail CI if a deleted API reappears in any Rust source: the
# pre-fabric submission surface, the stand-alone serial controller, the
# schedule verifiers nothing called, the codec's second message
# representation, the admission, scheduler and simulator modes no
# caller selected, the second counter taxonomy beside the obs events,
# the unused switch handshake, the channel's scripted fault windows,
# live seat migration with its rebalance advice, the dependency
# shims whose jobs sdn_types and std do, the exponential walk
# checker with the oracle modes that chose between it and the choice
# graph, and the eight OpenFlow message types nothing sent.
# No file — not even their former defining sites — may
# mention these names:
#
#   World::with_runtime        -> World::builder(..).{concurrent,fabric,runtime_handle}
#   World::submit_update       -> World::submit(SubmitRequest::new(update))
#   World::runtime_stats       -> world.runtime().stats()
#   World::set_switch_channel  -> World::set_link_profile(dp, Some(profile))
#   World::clear_switch_channel-> World::set_link_profile(dp, None)
#   trait UpdateRuntime        -> trait RuntimeHandle
#   Controller::new(ControllerConfig)
#                              -> ConcurrentRuntime::new(RuntimeConfig::serial(exec))
#   WorldBuilder::serial()     -> the builder's default; World::new(topo, cfg)
#   the parallel, sharded and sampled schedule verifiers —
#   verify_schedule_{parallel,sharded}, check_round_{sampled}, the
#   shard split ({split_,Split}{s,S}chedule, {round_o,RoundO}wner) and
#   Sharded{Report}
#                              -> checker::verify_schedule before submit
#   the second whole-schedule verifier verify_schedule_{incremental}
#   and its bench ids checker/verify_reversal256_slf_{stateless,incremental}
#                              -> checker::verify_schedule (strong loop
#                                 freedom through its cross-round session),
#                                 bench checker/verify_reversal256_slf
#   the OpenFlow mirror types Wire{Message,Frame,FlowMod,Match,Action,
#   PhyPort,SwitchFeatures}    -> the message model, written and read
#                                 directly by codec::{try_encode_into,decode}
#   codec::try_encode          -> codec::try_encode_into
#   framing::encode_to         -> codec::try_encode_into(..).expect(..)
#   FrameCodec::drain{,_lossy} -> loop on FrameCodec::next_frame
#   FrameCodec::is_poisoned    -> (always false; framing errors never poison)
#   checker::incremental::Nodes (struct Nodes, Nodes::of)
#                              -> UpdateInstance's own dense switch index
#   AdmissionPolicy, DropOldest, QueuedDisplacing, AdmitOutcome,
#   RejectReason, JournalRecord::Shed
#                              -> a bounded queue that refuses:
#                                 SubmitError::QueueFull
#   admission_response         -> rest::response::submit_response
#   tenant_quota               -> FabricConfig::tenants (TenantPolicy)
#   enforce_waypoint           -> WayUp
#   allow_fallback             -> (WayUp always falls back)
#   flowmod_proc_delay, packet_proc_delay
#                              -> (private constants of sim/world.rs)
#   sdn_obs::Ctr, CTR_TABLE (the hand-bumped counter taxonomy)
#                              -> Registry::events(EventKind), counted by
#                                 Obs::emit; RuntimeStats; ChannelStats
#   Gauge::{QueueDepth,ActiveJobs,PendingAcks,Migrating}
#                              -> rendered from the StatusReport by
#                                 rest::metrics::metrics_response
#   sdn_ctrl::handshake::Handshake
#                              -> none (nothing drove it)
#   SimChannel::{script_down,script_stall,clear_faults}, FaultWindow
#                              -> World faults: FaultKind::{LinkDown,LinkUp,Reboot}
#   live seat migration and rebalance advice: SwitchSeat, MigrateError,
#   RebalanceReport, ShardLoad, SuggestedMove, begin_migration,
#   apply_rebalance, drive_migrations, rebalance_report,
#   seat_quiescent, extract_seat, install_seat, take_shadow,
#   install_shadow, ShardAssignment::set_override, begin_seat_migration,
#   RuntimeStats::{migrations,migration_aborts} (read as fields; the
#   dispatch golden test folds their recorded zeros back into the
#   stats' Debug text), JournalRecord::Migrate{Begin,Committed,Aborted},
#   EventKind::Migrate{Fence,Commit,Abort}, HistId::MigrationPauseNs,
#   FaultKind::MigrateSeat, StatusReport::migrating,
#   sdn_migrating_seats, Endpoint::Rebalance{,Apply},
#   rebalance_response, parse_rebalance_apply, rebalance_apply_response,
#   migrate_error_response, exp_live_rebalance
#                              -> ShardAssignment::with_overrides, fixed
#                                 when the fabric is built
#   rand::, DetRng::inner      -> sdn_types::DetRng (its own xoshiro256++)
#   crossbeam::                -> the transport's event VecDeque
#                                 (Mutex<VecDeque<TransportEvent>>)
#   parking_lot::              -> std::sync::Mutex behind a poison-absorbing
#                                 lock helper
#   the second walk-safety engine and its modes: OracleMode,
#   checker::decision_walk, DEFAULT_LEAF_BUDGET, check_round_collecting,
#   CheckReport::budget_exhausted,
#   AdmissionProbe::walk_budget_exhausted, Peacock::prefer_conservative,
#   choice_graph::round_safe_conservative
#                              -> choice_graph::check_round_walks (exact,
#                                 polynomial), round_admissible(inst, base,
#                                 ops, props), AdmissionProbe::open(inst,
#                                 base, props)
#   the OpenFlow messages nothing sent: OfMessage::{Hello,
#   FeaturesRequest,FeaturesReply,PacketIn,PacketOut,ErrorMsg,
#   FlowStatsRequest,FlowStatsReply}, CodecError::{TooManyPorts,
#   BadPacketOutActions,UnknownStatsType}, FlowTable::total_packets,
#   PortNo::is_physical
#                              -> none: nothing sent them (the wire is
#                                 FlowMod, BarrierRequest/Reply and
#                                 EchoRequest/Reply; any other type byte
#                                 decodes to CodecError::UnknownType)
#
# The update model keeps one switch index: the code of
# crates/core/src/{model,config}.rs (not their tests, which hold ordered
# references to compare against) may not key an ordered map or set by
# DpId again.
#
# The per-FlowMod lookups stay hashed (sdn_types::IdMap): no library
# code outside its tests may bring back the ordered maps they replaced —
# the conflict index's (switch, class, job) set, the RTO table's and the
# resync shadow's per-switch maps, the topology's nested adjacency map
# and the transport's connection index:
#
#   BTreeSet<(DpId, FlowClass, JobId)>, BTreeMap<DpId, Estimator>,
#   BTreeMap<DpId, FlowTable>, BTreeMap<DpId, BTreeMap<DpId,
#   index: BTreeMap<DpId
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN='\b(UpdateRuntime|with_runtime|submit_update|runtime_stats|set_switch_channel|clear_switch_channel)\b|ControllerConfig|Controller::new|\.serial\(\)'
PATTERN+='|\bverify_schedule_(parallel|sharded|incremental)\b|\bcheck_round_(sampled)\b'
PATTERN+='|\bverify_reversal256_slf_(stateless|incremental)\b'
PATTERN+='|\b(split_s|SplitS)chedule\b|\b(round_o|RoundO)wner\b|\bSharded(Report)\b'
PATTERN+='|\bWire(Message|Frame|FlowMod|Match|Action|PhyPort|SwitchFeatures)\b'
PATTERN+='|\b(encode_to|is_poisoned|drain_lossy|try_encode)\b'
PATTERN+='|\bNodes::of\b|\bstruct Nodes\b'
PATTERN+='|\b(AdmissionPolicy|DropOldest|QueuedDisplacing|AdmitOutcome|RejectReason)\b'
PATTERN+='|\b(admission_response|tenant_quota|enforce_waypoint|allow_fallback)\b'
PATTERN+='|\b(flowmod_proc_delay|packet_proc_delay)\b|\bJournalRecord::Shed\b'
PATTERN+='|\bCtr\b|\bCTR_TABLE\b|\bGauge::(QueueDepth|ActiveJobs|PendingAcks|Migrating)\b'
PATTERN+='|\bHandshake\b|\b(script_down|script_stall|clear_faults|FaultWindow)\b'
PATTERN+='|\b(SwitchSeat|MigrateError|RebalanceReport|ShardLoad|SuggestedMove)\b'
PATTERN+='|\b(begin_migration|apply_rebalance|drive_migrations|rebalance_report)\b'
PATTERN+='|\b(seat_quiescent|extract_seat|install_seat|take_shadow|install_shadow)\b'
PATTERN+='|ShardAssignment::set_override|assign\.set_override|set_override\((dp\b|DpId\()'
PATTERN+='|\b(begin_seat_migration|MigrationPauseNs)\b|\.(migrations|migration_aborts)\b'
PATTERN+='|\b(Migrate(Begin|Committed|Aborted|Fence|Commit|Abort|Seat))\b|\.migrating\b'
PATTERN+='|\bsdn_migrating_seats\b|\bEndpoint::Rebalance(Apply)?\b|\brebalance_(apply_)?response\b'
PATTERN+='|\b(parse_rebalance_apply|migrate_error_response|exp_live_rebalance)\b'
PATTERN+='|\b(rand|crossbeam|parking_lot)::|\bDetRng::inner\b'
PATTERN+='|\b(OracleMode|decision_walk|DEFAULT_LEAF_BUDGET|check_round_collecting)\b'
PATTERN+='|\b(walk_)?budget_exhausted\b|\b(prefer_conservative|round_safe_conservative)\b'
PATTERN+='|\bOfMessage::(Hello|FeaturesRequest|FeaturesReply|PacketIn|PacketOut|ErrorMsg|FlowStatsRequest|FlowStatsReply)\b'
PATTERN+='|\b(TooManyPorts|BadPacketOutActions|UnknownStatsType|total_packets|is_physical)\b'

hits=$(find . -name '*.rs' -not -path './target/*' -not -path './shims/*' -print0 |
    xargs -0 grep -nE "$PATTERN" || true)
for f in crates/core/src/model.rs crates/core/src/config.rs; do
    hits+=$(awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /BTree(Map|Set)<DpId/ { printf "\n%s:%d:%s", f, FNR, $0 }' "$f")
done
ORDERED='BTreeSet<(DpId, FlowClass, JobId)>
BTreeMap<DpId, Estimator>
BTreeMap<DpId, FlowTable>
BTreeMap<DpId, BTreeMap<DpId
index: BTreeMap<DpId'
hits+=$(find crates src -path '*/src/*' -name '*.rs' -print0 |
    xargs -0 awk -v pats="$ORDERED" 'BEGIN { n = split(pats, p, "\n") }
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live { for (i = 1; i <= n; i++) if (index($0, p[i])) {
            printf "\n%s:%d:%s", FILENAME, FNR, $0; break } }')

if [ -n "$hits" ]; then
    echo "error: a deleted API must not come back:" >&2
    echo "$hits" >&2
    echo >&2
    echo "Use the replacements documented in README.md (Deleted APIs)." >&2
    exit 1
fi
echo "lint_deprecated: no trace of the deleted APIs"
