#!/usr/bin/env bash
# Continuous-integration gate. Run from the repo root:
#   ./ci.sh
#
# Order matters: the cheap style gates fail fast before the build, and the
# tier-1 gate (release build + full test suite) runs last.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

# The crates cut along their write scopes (DESIGN §7's maps) stay cut: no
# source file under each directory over its limit, tests included.
echo "== file sizes: core 1,000 lines; tcp, kernel, trace, registry, buffers 650 =="
for cap in crates/core/src:1000 crates/tcp/src:650 crates/kernel/src:650 crates/trace/src:650 \
  crates/registry/src:650 crates/buffers/src:650; do
  find "${cap%:*}" -name '*.rs' -exec wc -l {} + \
    | awk -v limit="${cap#*:}" '$2 != "total" && $1 > limit { print $2 " has " $1 " lines (limit " limit ")"; bad = 1 } END { exit bad }'
done

# The shape `core::world` was cut to (DESIGN §7's module map): the two
# organizations' receive paths apart. The compiler already keeps each
# one's bookkeeping on `Host` to its own module (private fields); the
# greps hold what privacy cannot: the monolithic path naming the user
# library's public types, the user library naming the monolithic stack's
# event, either naming the other.
echo "== core::world: organizations apart =="
world=crates/core/src/world
if grep -nE 'ChanInfo|RegistryAction|userlib' $world/org/monolithic.rs \
  || grep -rnE 'PcbInput|monolithic' $world/org/userlib.rs $world/org/userlib/; then
  echo "core::world's organizations name each other (lines above)"; exit 1
fi

# The shape `unp-tcp` was cut to (DESIGN §7's component table): what
# `CongestionControl` means decided in the congestion component alone. The
# compiler already keeps each component's fields to its own module; the
# grep holds what privacy cannot: the TCB (or another component) branching
# on the algorithm.
echo "== unp-tcp: one congestion decision =="
if grep -rn 'CongestionControl::' crates/tcp/src \
  | grep -v '^crates/tcp/src/\(congestion\|config\)\.rs:'; then
  echo "CongestionControl is matched outside the congestion component (lines above)"; exit 1
fi

# Out-of-order bytes are written once, into the receive ring at their
# offset (DESIGN §7, "the receive ring"): the reassembly queue is a list
# of held sequence ranges and owns no payload of its own. The grep holds
# that it keeps no byte buffer, copies no segment, and keys no map by
# offset.
echo "== unp-tcp: reassembly holds no bytes of its own =="
if grep -nE 'Vec<u8>|to_vec|BTreeMap' crates/tcp/src/reasm.rs; then
  echo "crates/tcp/src/reasm.rs keeps payload bytes (lines above); hold them in the receive ring"; exit 1
fi

# The shape the network I/O module was cut to (DESIGN §7's kernel map):
# every receive discard journaled from one place — the ring's admission
# check in `channel.rs`. The compiler keeps each mechanism's fields to its
# own module; the grep holds what privacy cannot: a second site building a
# `RingDrop` or `QuotaDrop` record (the closure an `emit` is handed) in
# the non-test part of any crate's sources.
echo "== unp-kernel: one receive discard site =="
for event in RingDrop QuotaDrop; do
  sites=$(find crates -path '*/src/*' -name '*.rs' -exec awk -v ev="$event" '
    FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
    live && $0 ~ ("[|][|] *(unp_trace::)?Event::" ev " [{]") { print FILENAME ":" FNR ":" $0 }' {} +)
  if [ "$(printf '%s\n' "$sites" | grep -c .)" -ne 1 ]; then
    printf '%s\n' "$sites"; echo "Event::$event is journaled from other than exactly one site (lines above)"; exit 1
  fi
done

# The registry server holds only what its three duties need (port
# namespace, handshakes, inheritance): no copy of the kernel's channel
# counters, which the metrics registry retires with each connection. The
# `unp-kernel` line stays in its Cargo.toml only because the frozen
# `benchmark/Cargo.lock` pins that edge; the grep holds that nothing uses it.
echo "== unp-registry: names nothing of unp-kernel =="
if grep -rn unp_kernel crates/registry/src; then
  echo "unp-registry names unp_kernel (lines above)"; exit 1
fi

# One lossy wire outside `unp-tcp`'s own tests: every impaired run of the
# stack — the experiments, the reports, the benches, the examples — goes
# through `core::faults::FaultPlan` and the one delivery path in
# `world::link`. The two-stack loopback harness is the TCP crate's test
# rig, with no link rate and no host cost; the grep holds that nothing
# else names it.
echo "== one lossy wire: the loopback harness named only inside unp-tcp =="
if grep -rn 'loopback::' crates/*/src crates/*/benches src examples | grep -v '^crates/tcp/'; then
  echo "unp-tcp's loopback harness is named outside crates/tcp (lines above)"; exit 1
fi

# The observability crate stays smaller than the stack it watches: fewer
# lines under crates/trace/src than under the TCP, network I/O module and
# registry sources combined (tests included, as `wc -l` counts them).
echo "== unp-trace: smaller than tcp + kernel + registry =="
lines() { find "$@" -name '*.rs' -exec cat {} + | wc -l; }
trace_lines=$(lines crates/trace/src)
stack_lines=$(lines crates/tcp/src crates/kernel/src crates/registry/src)
echo "crates/trace/src: $trace_lines lines; crates/{tcp,kernel,registry}/src: $stack_lines lines"
if [ "$trace_lines" -ge "$stack_lines" ]; then
  echo "unp-trace is not smaller than the stack it watches"; exit 1
fi

# Every keyword vocabulary in the observability crate is declared once,
# through `keywords!` (DESIGN §9): the macro writes each enum's `ALL`
# table and `label()` from its one variant list. The grep holds what the
# macro cannot: a hand-written `ALL` array, a second copy of a variant
# list that the declaration does not keep in step.
echo "== unp-trace: every keyword table from keywords! =="
if grep -rn 'const ALL: \[' crates/trace/src; then
  echo "a hand-written ALL table in unp-trace (lines above); declare the enum with keywords!"; exit 1
fi

# The journal's event list is declared once too, through `events!` in
# `record.rs`: each variant with its keyword and each field with its
# journal key, from which the macro writes the enum, `name()` and the
# `key=value` text. A hand-written `Event::X { .. } =>` arm there is a
# second copy of the variant list.
echo "== unp-trace: the journal's events from events! =="
if grep -nE 'Event::[A-Za-z]+ \{ \.\. \} =>' crates/trace/src/record.rs; then
  echo "a hand-written Event arm in record.rs (lines above); declare it in events!"; exit 1
fi

# Thread-local state only shrinks: at most 11 `static` items inside
# `thread_local!` blocks in the non-test part (above a file's first
# `#[cfg(test)]`, test-module files aside) of any crate's sources — the
# trace context (`CLOCK`, `HOST`, `NEXT_FRAME`, `JOURNAL_HANDLE`), the
# observer pipeline's four cells, the engine's event count and the frame
# pool's two counters, until a `Tracer` value replaces them.
echo "== thread-locals: at most 11 non-test statics =="
statics=$(find crates -path '*/src/*' -name '*.rs' ! -name tests.rs -exec awk '
  FNR == 1 { live = 1; inside = 0; depth = 0 } /^#\[cfg\(test\)\]/ { live = 0 }
  live && !inside && /thread_local!/ { inside = 1 }
  live && inside {
    n = gsub(/static [A-Z_][A-Z0-9_]*:/, "&")
    for (i = 0; i < n; i++) print FILENAME ":" FNR ":" $0
    depth += gsub(/[{(]/, "&") - gsub(/[})]/, "&")
    if (depth <= 0) { inside = 0; depth = 0 }
  }' {} +)
count=$(printf '%s\n' "$statics" | grep -c . || true)
echo "$count non-test thread-local statics"
if [ "$count" -gt 11 ]; then
  printf '%s\n' "$statics"; echo "more than 11 thread-local statics (lines above)"; exit 1
fi

# Events are data (DESIGN §16): every step the user library's connection
# life cycle schedules is an `Event` variant, the connect RPC included, so
# a boxed `host_exec` closure is left only where nothing per frame, per
# hand-off step or per connection runs — at most 7 call sites in the
# non-test part of `core`'s sources: exit inheritance, the monolithic
# accept and the five ICMP and UDP steps.
echo "== core: at most 7 non-test host_exec call sites =="
sites=$(find crates/core/src -name '*.rs' ! -name tests.rs -exec awk '
  FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
  live && /host_exec\(/ { print FILENAME ":" FNR ":" $0 }' {} +)
count=$(printf '%s\n' "$sites" | grep -c . || true)
echo "$count non-test host_exec call sites"
if [ "$count" -gt 7 ]; then
  printf '%s\n' "$sites"; echo "more than 7 host_exec call sites (lines above)"; exit 1
fi

# A closed connection leaves its storage for the next one (DESIGN §7, "who
# owns what"): the registry builds every user-library block in a spare one
# when it has one, and hands it over in the box it was built in. The grep
# holds what the types cannot: `route` boxing the block anew on every
# completed handshake.
echo "== unp-registry: a completed handshake hands over the block's own box =="
if grep -n 'Box::new(p\.tcb)' crates/registry/src/lib.rs; then
  echo "unp-registry boxes a block it hands over (lines above); hand over the box it was built in"; exit 1
fi

# TIME_WAIT keeps a pair, not a connection (DESIGN §7, "who owns what"):
# a library connection sits out 2·MSL as a `TimeWait` record while its
# block goes back to the registry whole, and that record lives on no heap.
# The greps hold what the types cannot: `core` parking a block through
# TIME_WAIT and handing over only its rings (`keep_rings`), or the record
# growing a field that allocates.
echo "== TIME_WAIT: a heap-free record, the block back at the wait's start =="
record=crates/tcp/src/time_wait.rs
if grep -rn 'keep_rings' crates/core/src \
  || sed -n '/^pub struct TimeWait {/,/^}/p;/^struct Counts {/,/^}/p' $record | grep -nE 'Box<|Vec<'; then
  echo "core parks a block through TIME_WAIT, or the TIME_WAIT record holds a Box/Vec (lines above)"; exit 1
fi

# A sent segment's payload is copied once (DESIGN §7, "Stream-path copy
# budget"): the TCB hands its bytes to the world's sink as slices of its
# send buffer, and the sink stages them straight into the pooled frame the
# NIC sends. The greps hold what the types cannot: a scheduled step of the
# world carrying an owned byte vector again (`Vec<u8>` in `event.rs`), or
# the non-test part of `core`'s sources copying a ring range into one
# (`copy_range(`).
echo "== core: one payload copy per sent segment =="
fields=$(grep -n 'Vec<u8>' crates/core/src/world/event.rs | sed 's|^|crates/core/src/world/event.rs:|' || true)
sites=$(find crates/core/src -name '*.rs' ! -name tests.rs -exec awk '
  FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
  live && /copy_range\(/ { print FILENAME ":" FNR ":" $0 }' {} +)
if [ -n "$fields$sites" ]; then
  printf '%s\n' "$fields" "$sites" | grep .
  echo "a world step carries a Vec<u8>, or core copies a ring range into one (lines above)"; exit 1
fi

# Each workload in `unp-bench` runs once and is reported once: the
# million-channel population is built by the demux scale sweep (its
# footprint and the monitor's memory bound read the same modules) and by
# the churn gate, nowhere else — at most 2 `scale_module(` call sites in
# the non-test part of `crates/bench/src`, the definition aside.
echo "== unp-bench: at most 2 non-test scale_module call sites =="
sites=$(find crates/bench/src -name '*.rs' -exec awk '
  FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
  live && /scale_module\(/ && !/fn scale_module\(/ { print FILENAME ":" FNR ":" $0 }' {} +)
count=$(printf '%s\n' "$sites" | grep -c . || true)
echo "$count non-test scale_module call sites"
if [ "$count" -gt 2 ]; then
  printf '%s\n' "$sites"; echo "more than 2 scale_module call sites (lines above)"; exit 1
fi

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release --offline

# `default-members` makes this the whole workspace, not the facade alone.
echo "== tier-1: cargo test -q =="
cargo test -q --offline

# The host-time ledger (benchmark/) is a workspace of its own compiled
# against the crates' public API, so neither step above builds it: a
# signature change under it would otherwise surface only in the bench
# pipeline. Its tests check the ledger's promises on small rounds.
echo "== benchmark/: build + test against the current crates =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml

# The two invariants the fast paths stand on, run explicitly (and in
# release, matching how the artifacts are produced): the zero-copy frame
# path must keep the golden pcap byte-identical, and the flow-table demux
# must be indistinguishable from the linear filter scan. The journal
# determinism tests join them: two identical runs must produce
# byte-identical journals, and every delivered frame's lifecycle must
# reconstruct by frame id.
echo "== tier-1: zero-copy golden pcap + demux differential + journal (release) =="
cargo test -q --release --offline --test zero_copy --test demux_differential --test journal

# The allocation budgets: a steady-state Table-2 bulk frame under the
# user-level library may touch the general allocator at most 1.25 times
# (reads 1.04; a payload Vec per sent segment reads 1.54, a boxed closure
# per event or a fresh Vec per call ~14), a one-byte exchange on AN1 at
# most 2.25 times (reads 2.04; the payload Vec reads 3.05), a warm
# frame pool may not touch it at all over 1,000 alloc/clone/slice/COW/drop
# cycles, a connect-echo-close may make at most 15 allocations (reads 11.8;
# a fresh block and fresh rings per connection and a closure per connect
# RPC read 18.7), request at most 25 KB and keep 5.1 KB through
# TIME_WAIT (reads 1.6 KB; a ring reserved up front reads 59 KB and 28 KB,
# a block parked through the wait 2.0 KB), and a
# connection that has closed at both ends may keep 64 B (a scope and a
# binding report per connection ever made read 445 B). In release, like
# the ledger whose `allocs_per_frame`, `alloc_bytes_per_frame` and
# `peak_heap_bytes` they mirror.
echo "== allocation budgets (release) =="
cargo test -q --release --offline --test alloc_budget
cargo test -q --release --offline -p unp-buffers --test pool_allocations

# The timing wheel against its sorted-list oracle after every operation:
# the release build runs the property at 512 cases (64 in the debug pass
# above), across all four levels, the overflow list and multi-rotation
# advances that the tick-by-tick wheel could not afford to be tested on.
echo "== timing wheel equivalence, 512 cases (release) =="
cargo test -q --release --offline -p unp-timers

# The hostile-peer property at the TCB seam: every live state under
# mutated segments, stale timers and user calls, 512 cases (64 in the
# debug pass above, where `ConnMgmt::transition`'s `debug_assert!` is a
# second referee of the legal-edge oracle).
echo "== hostile peer vs. every live TCB state, 512 cases (release) =="
cargo test -q --release --offline -p unp-tcp --test hostile_peer

# Reassembly against a byte map: random segments below, inside and past
# the window, conflicting contents, reads interleaved, a sequence space
# that wraps. 512 cases (64 in the debug pass above, where `Delivery`'s
# `debug_assert!` also holds the ring within the receive buffer).
echo "== reassembly vs. a byte map, 512 cases (release) =="
cargo test -q --release --offline -p unp-tcp --test reassembly

# A reopened block against a fresh one: two blocks used by a connection
# with other ports, ISS, configuration and counters, reopened in place,
# must emit and read exactly what a fresh pair does through the same
# random script — handshake, data both ways, segments out of order, lost
# and repeated, both close orders, TIME_WAIT, RST, timers. 512 cases (64
# in the debug pass above).
echo "== reopened blocks vs. fresh ones, 512 cases (release) =="
cargo test -q --release --offline -p unp-tcp --test recycle

# A TIME_WAIT record against the block it stands in for: random segments
# around both edges, every timer, sends, closes and aborts, through both
# ways into TIME_WAIT under random configurations — the same actions,
# state, sequence numbers and counters after every step, and the 2·MSL
# wait restarted only by the peer's FIN again. 512 cases (64 in the debug
# pass above).
echo "== TIME_WAIT records vs. their blocks, 512 cases (release) =="
cargo test -q --release --offline -p unp-tcp --test time_wait

# The same at the transmit trust boundary: frames whose headers lie, on
# both framings, must never leave under a header their template does not
# allow, and lies only in bytes the template leaves free must never turn
# an accept into a reject. 512 cases (64 in the debug pass above).
echo "== hostile transmit vs. the header templates, 512 cases (release) =="
cargo test -q --release --offline -p unp-kernel --test hostile_transmit

# And where a remote peer reaches the stack first: a connection's own
# segments, handshake and data, replayed and mutated, handed to
# `frame_arrives` in each phase of a connection under every organization
# (and, under the user library, of the library↔registry hand-off) on both
# networks, must not panic, trip the conformance monitor, or leave
# anything behind once the world drains. 512 cases (64 in the debug pass
# above).
echo "== hostile segments vs. every organization and the hand-off, 512 cases (release) =="
cargo test -q --release --offline --test hostile_handshake

# The causal graph's join discipline must hold in release mode too: every
# retransmit traced to its injected cause, every delivered receive copy's
# stage components summing exactly to its end-to-end span with
# fault-duplicated ids and checksum discards in the journal, and windowed
# telemetry doing exact delta arithmetic.
echo "== profiler joins + windowed telemetry (release) =="
cargo test -q --release --offline --test causal --test telemetry

# The fault soak: seeded drop/dup/reorder/corrupt/outage schedules plus a
# mid-transfer application crash per world, with the differential oracle
# (surviving streams byte-exact, failures clean) and the zero-leak sweep.
# Fixed seeds inside the test make this deterministic; release mode
# matches how the long multi-host worlds are meant to run. With it, the
# teardown suite: 5,000 connects from one client wrap the ephemeral port
# range, and every reused 4-tuple must still count as its own connection
# in the closed totals.
echo "== fault soak + teardown / port wrap (seeded, release) =="
cargo test -q --release --offline --test fault_soak --test teardown

# The reproduced tables are the project's ground truth: any diff against
# the committed golden output — including from a demux or buffering
# "optimization" — is a regression, not an update, unless reviewed.
echo "== repro-tables output vs. golden tables_output.txt =="
cargo run -q -p unp-bench --release --offline --bin repro-tables > /tmp/unp_tables_output.txt
diff -u tables_output.txt /tmp/unp_tables_output.txt \
  || { echo "repro-tables output diverged from golden tables_output.txt"; exit 1; }

# The live dashboard is deterministic too (sim time, seeded faults): its
# whole output — windowed rates, levels read from their owners, the
# closed-connection and per-tenant tables, the causal decomposition — is
# a golden, so a change to any number it reads shows as a diff.
echo "== unp_top output vs. golden tests/golden/unp_top.txt =="
cargo run -q --release --offline --example unp_top > /tmp/unp_top_output.txt
diff -u tests/golden/unp_top.txt /tmp/unp_top_output.txt \
  || { echo "unp_top output diverged from golden tests/golden/unp_top.txt"; exit 1; }

# Every BENCH_*.json is simulated time and exact counts from one fixed
# workload size, and so is the golden Chrome trace `bench causal` writes
# beside BENCH_causal.json: regenerate them all and fail on any
# difference. That diff is the one way a simulated number is pinned; a
# change that moves one on purpose regenerates with `bench all`, reviews
# the diff and commits the new files (BENCH_summary.json is the gate
# table evaluated over them).
#
# `bench` also holds each document it has just built to its rows of the
# gate table (crates/bench/src/summary.rs: every bound the reports are
# held to, one row each) — the causal fault-plan oracle, the multi-tenant
# isolation envelope, the conformance monitor's zero-violation /
# non-vacuity / mutation-coverage legs, the model cross-checks of the
# traced sweep — so every report is built once.
echo "== BENCH_*.json artifacts + golden Chrome trace vs. the committed ones, and their gate rows =="
cargo run -q -p unp-bench --release --offline --bin repro-tables -- bench all > /dev/null
git diff --exit-code -- 'BENCH_*.json' tests/golden/causal_trace.json \
  || { echo "a BENCH_*.json artifact or the golden Chrome trace diverged from the committed one"; exit 1; }

# The one gated report that has no artifact, because it is the one
# wall-clock check left: a churn cycle at 4096 channels within a constant
# factor of one at 64 (a regression to O(N) reads ~50x).
echo "== gate table: churn =="
cargo run -q -p unp-bench --release --offline --bin repro-tables -- gate churn > /dev/null

echo "CI gate passed."
