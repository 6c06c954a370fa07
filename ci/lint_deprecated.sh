#!/usr/bin/env bash
# Fail CI if a deleted API reappears in any Rust source: the
# pre-fabric submission surface, the stand-alone serial controller, the
# schedule verifiers nothing called and the codec's second message
# representation. No file — not even their former defining sites — may
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
#   the OpenFlow mirror types Wire{Message,Frame,FlowMod,Match,Action,
#   PhyPort,SwitchFeatures}    -> the message model, written and read
#                                 directly by codec::{try_encode_into,decode}
#   codec::try_encode          -> codec::try_encode_into
#   framing::encode_to         -> codec::try_encode_into(..).expect(..)
#   FrameCodec::drain{,_lossy} -> loop on FrameCodec::next_frame
#   FrameCodec::is_poisoned    -> (always false; framing errors never poison)
#   checker::incremental::Nodes (struct Nodes, Nodes::of)
#                              -> UpdateInstance's own dense switch index
#
# The update model keeps one switch index: the code of
# crates/core/src/{model,config}.rs (not their tests, which hold ordered
# references to compare against) may not key an ordered map or set by
# DpId again.
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN='\b(UpdateRuntime|with_runtime|submit_update|runtime_stats|set_switch_channel|clear_switch_channel)\b|ControllerConfig|Controller::new|\.serial\(\)'
PATTERN+='|\bverify_schedule_(parallel|sharded)\b|\bcheck_round_(sampled)\b'
PATTERN+='|\b(split_s|SplitS)chedule\b|\b(round_o|RoundO)wner\b|\bSharded(Report)\b'
PATTERN+='|\bWire(Message|Frame|FlowMod|Match|Action|PhyPort|SwitchFeatures)\b'
PATTERN+='|\b(encode_to|is_poisoned|drain_lossy|try_encode)\b'
PATTERN+='|\bNodes::of\b|\bstruct Nodes\b'

hits=$(find . -name '*.rs' -not -path './target/*' -not -path './shims/*' -print0 |
    xargs -0 grep -nE "$PATTERN" || true)
for f in crates/core/src/model.rs crates/core/src/config.rs; do
    hits+=$(awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /BTree(Map|Set)<DpId/ { printf "\n%s:%d:%s", f, FNR, $0 }' "$f")
done

if [ -n "$hits" ]; then
    echo "error: a deleted API must not come back:" >&2
    echo "$hits" >&2
    echo >&2
    echo "Use the replacements documented in README.md (Deleted APIs)." >&2
    exit 1
fi
echo "lint_deprecated: no trace of the deleted APIs"
