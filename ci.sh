#!/bin/sh
# The full offline CI gate: formatting, release build, tests, and the
# fault-containment smoke. The workspace has zero non-workspace
# dependencies (see DESIGN.md, "Dependencies"), so --offline must always
# succeed on a cold registry.
set -ex
cd "$(dirname "$0")"
cargo fmt --check
cargo build --release --offline --workspace
# CI always runs the long property/pipeline corpus sweeps; plain
# `cargo test` runs the fast subset (see DESIGN.md, "Test tiers").
ALIVE2_FULL_CORPUS=1 cargo test -q --offline --workspace

# ---- fault-containment smoke (see DESIGN.md, "Fault containment") ----
# A tiny corpus where one job is made to panic (--inject-panic) and one
# blows a deliberately small term-memory budget. The run must complete
# every remaining job and exit 0 with one crash and one oom in the
# summary; verdict counts must be identical at --jobs 1 and --jobs 4 and
# across a killed-then-resumed journal. The `alive2_tv` bin comes from
# the workspace build above.
TV=target/release/alive2_tv
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

"$TV" tests/fixtures/faults_src.ll tests/fixtures/faults_tgt.ll \
    --unroll 8 --mem-budget-mb 2 --inject-panic doomed --jobs 4 \
    --journal "$SMOKE/journal.jsonl" > "$SMOKE/par.out" 2> "$SMOKE/par.err"
tail -n 1 "$SMOKE/par.out" | grep -q '"crash":1'
tail -n 1 "$SMOKE/par.out" | grep -q '"oom":1'
tail -n 1 "$SMOKE/par.out" | grep -q '"incorrect":0'

# --jobs 1 must report the same summary line. Timing fields (stats/phases)
# legitimately vary run to run, so comparisons strip them and keep the
# deterministic verdict columns.
verdicts() { tail -n 1 "$1" | sed 's/,"stats":.*$/}/'; }
"$TV" tests/fixtures/faults_src.ll tests/fixtures/faults_tgt.ll \
    --unroll 8 --mem-budget-mb 2 --inject-panic doomed --jobs 1 \
    > "$SMOKE/seq.out" 2> "$SMOKE/seq.err"
verdicts "$SMOKE/par.out" > "$SMOKE/par.sum"
verdicts "$SMOKE/seq.out" > "$SMOKE/seq.sum"
cmp "$SMOKE/par.sum" "$SMOKE/seq.sum"

# Kill simulation: keep the journal's first line plus a torn fragment of
# the second (as left by a mid-write SIGKILL), then resume. The resumed
# run must land on the identical summary.
head -n 1 "$SMOKE/journal.jsonl" > "$SMOKE/torn.jsonl"
sed -n 2p "$SMOKE/journal.jsonl" | cut -c1-25 >> "$SMOKE/torn.jsonl"
"$TV" tests/fixtures/faults_src.ll tests/fixtures/faults_tgt.ll \
    --unroll 8 --mem-budget-mb 2 --inject-panic doomed --jobs 4 \
    --resume "$SMOKE/torn.jsonl" > "$SMOKE/res.out" 2> "$SMOKE/res.err"
verdicts "$SMOKE/res.out" > "$SMOKE/res.sum"
cmp "$SMOKE/par.sum" "$SMOKE/res.sum"

# ---- observability smoke (see DESIGN.md, "Observability") ----
# The same fault corpus under --stats --trace: the stats report and the
# summary's stats object must agree with the verdicts (3 jobs), the trace
# must be a well-formed JSON array with balanced B/E events, and at
# --jobs 1 the per-phase busy times must sum to within 5% of wall time.
"$TV" tests/fixtures/faults_src.ll tests/fixtures/faults_tgt.ll \
    --unroll 8 --mem-budget-mb 2 --inject-panic doomed --jobs 1 \
    --stats --trace "$SMOKE/trace.json" > "$SMOKE/obs.out" 2> "$SMOKE/obs.err"
grep -q 'phase breakdown' "$SMOKE/obs.out"
grep -q 'jobs 3' "$SMOKE/obs.out"
tail -n 1 "$SMOKE/obs.out" | grep -q '"stats":{"jobs":3'
tail -n 1 "$SMOKE/obs.out" | grep -q '"crash":1'
head -c 1 "$SMOKE/trace.json" | grep -q '\['
tail -c 1 "$SMOKE/trace.json" | grep -q ']'
B=$(grep -c '"ph":"B"' "$SMOKE/trace.json")
E=$(grep -c '"ph":"E"' "$SMOKE/trace.json")
test "$B" -gt 0
test "$B" -eq "$E"
# Busy-vs-wall sanity. The old 5% two-sided bound was flaky: scheduler
# noise on a loaded box can leave the driver waiting well over 5% of a
# ~100ms run. Keep the direction that is a real invariant (at --jobs 1
# the phase spans cannot sum to more than wall, modulo rounding) and a
# loose floor that only catches timing being disarmed entirely.
tail -n 1 "$SMOKE/obs.out" | sed 's/.*"phases"://' | tr ',{}' '\n\n\n' | awk -F: '
  /"(parse|opt|encode|solve|journal|teardown)_us"/ { sum += $2 }
  /"wall_us"/ { wall = $2 }
  END { if (wall == 0 || sum < 0.25 * wall || sum > 1.02 * wall) {
          printf "phase sum %d vs wall %d outside [25%%, 102%%]\n", sum, wall; exit 1 } }'

# The deterministic counters (query/split/iteration/encode totals, the
# query-cache traffic and the per-job incremental-solver meters — not
# timings) must agree between the earlier --jobs 4 and --jobs 1 runs.
counters() {
  tail -n 1 "$1" | grep -o '"\(queries\|sat\|unsat\|unknown\|cegqi\|insts\|approx\|sat_solves\|cache_hits\|cache_misses\|incremental_solves\|clauses_reused\|learnts_kept\|assumption_cores\|cegqi_iter_exhausted\)":[0-9]*'
}
counters "$SMOKE/par.out" > "$SMOKE/par.cnt"
counters "$SMOKE/seq.out" > "$SMOKE/seq.cnt"
cmp "$SMOKE/par.cnt" "$SMOKE/seq.cnt"

# ---- examples smoke ----
# The examples finish their runs through the same driver tail as the
# bins: validate_app must print the --stats report, write a trace with
# balanced B/E events, and end its profile with the rule-fires trailer.
cargo build --release --offline -q --example validate_app
target/release/examples/validate_app bzip2 --jobs 2 --stats \
    --trace "$SMOKE/app_trace.json" --profile "$SMOKE/app_prof.jsonl" \
    > "$SMOKE/app.out" 2> "$SMOKE/app.err"
grep -q 'phase breakdown' "$SMOKE/app.out"
grep -q 'rule fires' "$SMOKE/app.out"
B=$(grep -c '"ph":"B"' "$SMOKE/app_trace.json")
E=$(grep -c '"ph":"E"' "$SMOKE/app_trace.json")
test "$B" -gt 0
test "$B" -eq "$E"
tail -n 1 "$SMOKE/app_prof.jsonl" | grep -q '"rule_fires"'

# ---- incremental-solving smoke (see DESIGN.md, "Incremental solving") --
# On the known-bug corpus the CEGQI candidate steps run on a live
# incremental solver, and the run must strictly beat the one-shot
# baseline's 102 live SAT solves (BENCH_pr5 cold run) with the 29
# detected / 7 missed split.
cargo build --release --offline -q -p alive2-bench --bin known_bugs
KB=target/release/known_bugs
"$KB" --jobs 4 > "$SMOKE/kb_inc.out" 2>&1
# known_bugs prints a human-readable tally after the summary JSON, so
# pick the JSON line by name rather than taking the last line.
kbsum() { grep '"name":"known_bugs"' "$1" | tail -n 1; }
kbsum "$SMOKE/kb_inc.out" | grep -q '"incorrect":29'
grep -q '29 detected / 7 missed' "$SMOKE/kb_inc.out"
kbsum "$SMOKE/kb_inc.out" | sed 's/,"stats":.*$/}/' > "$SMOKE/kb_inc.sum"
KB_INC=$(kbsum "$SMOKE/kb_inc.out" | grep -o '"sat_solves":[0-9]*' | cut -d: -f2)
KB_LIVE=$(kbsum "$SMOKE/kb_inc.out" | grep -o '"incremental_solves":[0-9]*' | cut -d: -f2)
test "$KB_INC" -lt 102
test "$KB_LIVE" -gt 0

# ---- process-supervision smoke (see DESIGN.md, "Process supervision") --
# Clean parity first: a --procs 2 run shards the corpus across worker
# processes and must reproduce the single-process verdict columns exactly,
# with zero supervision events.
"$KB" --jobs 4 --procs 2 > "$SMOKE/kb_sup.out" 2>&1
kbsum "$SMOKE/kb_sup.out" | sed 's/,"stats":.*$/}/' > "$SMOKE/kb_sup.sum"
cmp "$SMOKE/kb_inc.sum" "$SMOKE/kb_sup.sum"
kbsum "$SMOKE/kb_sup.out" | grep -q '"pairs_quarantined":0'
kbsum "$SMOKE/kb_sup.out" | grep -q '"worker_restarts":0'
grep -q '29 detected / 7 missed' "$SMOKE/kb_sup.out"

# The acceptance scenario: one pair aborts its worker process outright
# (--inject-abort: past what catch_unwind can contain) and one pair hangs
# it (--inject-hang: a non-cooperative spin only the watchdog's SIGKILL
# ends). The supervised run must still complete, exit 0, and quarantine
# exactly the two poisoned pairs — Crash for the abort, Timeout for the
# watchdog kill. Both injected pairs carry Missed expectations, so the
# 29 detected / 7 missed tally is preserved; `set -e` enforces exit 0.
# The 20 s watchdog is deliberately generous: at --shard-size 1 only the
# hung pair ever reaches it (costing one 20 s wait), while an innocent
# pair would need 20 s of wall for a sub-second job — headroom against a
# loaded CI box, where a tight watchdog quarantines bystanders.
"$KB" --jobs 4 --procs 2 --shard-size 1 --shard-retries 0 --watchdog-ms 20000 \
    --inject-abort trip-count-65536 --inject-hang infinite-loop-store-removed \
    > "$SMOKE/kb_fault.out" 2>&1
kbsum "$SMOKE/kb_fault.out" | grep -q '"incorrect":29'
kbsum "$SMOKE/kb_fault.out" | grep -q '"crash":1'
kbsum "$SMOKE/kb_fault.out" | grep -q '"timeout":1'
kbsum "$SMOKE/kb_fault.out" | grep -q '"pairs_quarantined":2'
kbsum "$SMOKE/kb_fault.out" | grep -q '"watchdog_kills":1'
grep -q '29 detected / 7 missed' "$SMOKE/kb_fault.out"

# ---- term-rewriting smoke (see DESIGN.md, "Term rewriting") ----
# The default known-bugs run above (kb_inc) has the rewriter on: it must
# have discharged obligations by algebra alone. tests/rewrite.rs checks
# the rest with the pass on and off: equal verdicts, the 29/7 split,
# zero rewrite meters when off, and fewer live one-shot solves when on.
KB_DISCHARGED=$(kbsum "$SMOKE/kb_inc.out" | grep -o '"rewrite_discharged":[0-9]*' | cut -d: -f2)
test "$KB_DISCHARGED" -gt 0

# ---- profiling smoke (see DESIGN.md, "Profiling & regression triage") --
# A --stats --profile run must emit the histogram and top-K report
# sections plus a JSON-lines profile file whose records agree with the
# summary counters: exactly sat_solves + incremental_solves records carry
# "solved":1 (the comma anchors the per-query flag, not the trailer's
# aggregate), and the last line is the rule-fires trailer.
"$KB" --jobs 4 --stats --profile "$SMOKE/kb.profile.jsonl" \
    > "$SMOKE/kb_prof.out" 2> "$SMOKE/kb_prof.err"
grep -q 'query histograms' "$SMOKE/kb_prof.out"
grep -q 'slowest queries' "$SMOKE/kb_prof.out"
grep -q 'rule fires' "$SMOKE/kb_prof.out"
grep -q 'trace dropped 0 events' "$SMOKE/kb_prof.out"
grep -q 'profile: wrote' "$SMOKE/kb_prof.err"
grep -q '29 detected / 7 missed' "$SMOKE/kb_prof.out"
# Structural JSON-lines check: every line is a single-line object.
PROF_LINES=$(wc -l < "$SMOKE/kb.profile.jsonl")
test "$PROF_LINES" -gt 1
test "$(grep -c '^{' "$SMOKE/kb.profile.jsonl")" -eq "$PROF_LINES"
test "$(grep -c '}$' "$SMOKE/kb.profile.jsonl")" -eq "$PROF_LINES"
tail -n 1 "$SMOKE/kb.profile.jsonl" | grep -q '"rule_fires"'
KB_SOLVED=$(grep -c '"solved":1,' "$SMOKE/kb.profile.jsonl")
KB_SAT=$(kbsum "$SMOKE/kb_prof.out" | grep -o '"sat_solves":[0-9]*' | cut -d: -f2)
KB_INCS=$(kbsum "$SMOKE/kb_prof.out" | grep -o '"incremental_solves":[0-9]*' | cut -d: -f2)
test "$KB_SOLVED" -eq $((KB_SAT + KB_INCS))
# Search determinism: two --jobs 1 runs must write the same profile
# records (194 lines on known_bugs), byte for byte once the per-query
# wall time is removed — CNF sizes, conflicts, decisions, propagations,
# learnts and results included. Count-based comparisons between runs,
# and between a change and its parent, rest on the search repeating.
for n in 1 2; do
  "$KB" --jobs 1 --profile "$SMOKE/kb_det$n.jsonl" > "$SMOKE/kb_det$n.out" 2>&1
  sed 's/"wall_us":[0-9]*//' "$SMOKE/kb_det$n.jsonl" > "$SMOKE/kb_det$n.nowall"
done
test "$(wc -l < "$SMOKE/kb_det1.nowall")" -gt 1
cmp "$SMOKE/kb_det1.nowall" "$SMOKE/kb_det2.nowall"
# Search pin: two runs of one build move together, so the check above
# cannot see a change that alters the search. The totals over those
# records must stay what they were when the search was last changed on
# purpose; such a change updates the numbers and says why. The CNF-size
# totals pin the blaster's circuits and its gate table, so losing
# either fails here and not only in the benchmark. A failing pin prints
# the total it found, so a deliberate search change reads its new
# values off the failure.
for pin in conflicts:5334 decisions:64265 propagations:1435492 \
    vars_pre:127058 clauses_pre:428950; do
  total=$(grep -o "\"${pin%%:*}\":[0-9]*" "$SMOKE/kb_det1.jsonl" | cut -d: -f2 |
    awk '{ s += $1 } END { print s + 0 }')
  if [ "$total" -ne "${pin#*:}" ]; then
    echo "search pin ${pin%%:*}: found $total, pinned ${pin#*:}"
    exit 1
  fi
done
# The live-solve counts of the default run are pinned with it: one-shot
# solves (every blasted one-shot query, since no run reads its own cache
# entries) and CEGQI candidate checks.
test "$KB_INC" -eq 32
test "$KB_LIVE" -eq 104

# ---- validation-service smoke (see DESIGN.md, "Validation as a service") --
# The known-bugs corpus through one warm `alive2-serve` daemon as two
# batches (emitted by serve_bench --emit-requests), in the default
# configuration. Both batches must reproduce the CLI verdict columns
# exactly (the 29 detected / 7 soundly-missed split of kb_inc above),
# the second (warm) batch must be answered from the in-memory
# query cache with no live solve at all (the term tier caches whole
# obligations, incremental CEGQI loops included), and stdin EOF must
# drain the queue and exit 0 (`set -e` enforces it).
SERVE=target/release/alive2-serve
target/release/serve_bench --emit-requests > "$SMOKE/serve_reqs.jsonl"
test "$(grep -c '"op":"validate"' "$SMOKE/serve_reqs.jsonl")" -eq 2
"$SERVE" --jobs 4 < "$SMOKE/serve_reqs.jsonl" \
    > "$SMOKE/serve.out" 2> "$SMOKE/serve.err"
grep '"id":"batch-1"' "$SMOKE/serve.out" | grep '"done":true' > "$SMOKE/b1.json"
grep '"id":"batch-2"' "$SMOKE/serve.out" | grep '"done":true' > "$SMOKE/b2.json"
for col in pairs correct incorrect timeout oom unsupported crash; do
  want=$(kbsum "$SMOKE/kb_inc.out" | grep -o "\"$col\":[0-9]*" | head -n 1)
  test "$(grep -o "\"$col\":[0-9]*" "$SMOKE/b1.json" | head -n 1)" = "$want"
  test "$(grep -o "\"$col\":[0-9]*" "$SMOKE/b2.json" | head -n 1)" = "$want"
done
lives() {
  s=$(grep -o '"sat_solves":[0-9]*' "$1" | head -n 1 | cut -d: -f2)
  i=$(grep -o '"incremental_solves":[0-9]*' "$1" | head -n 1 | cut -d: -f2)
  echo $((s + i))
}
test "$(lives "$SMOKE/b1.json")" -gt 0
test "$(lives "$SMOKE/b2.json")" -eq 0
test "$(grep -o '"cache_hits":[0-9]*' "$SMOKE/b2.json" | head -n 1 | cut -d: -f2)" -gt 0
# The daemon's exit summary keeps the last-stdout-line contract and
# covers both batches.
tail -n 1 "$SMOKE/serve.out" | grep -q '"name":"alive2_serve"'
tail -n 1 "$SMOKE/serve.out" | grep -q '"pairs":72'

# ---- regression-triage gate (alive2-report self-diff) ------------------
# Comparing a benchmark artifact against itself must be clean (exit 0);
# a perturbed copy with a flipped verdict column must trip the gate
# (exit 1) even with --min-wall-ms silencing perf noise.
cargo build --release --offline -q -p alive2-bench --bin alive2-report
REPORT=target/release/alive2-report
"$REPORT" BENCH_pr8.json BENCH_pr8.json > "$SMOKE/report_self.out"
grep -q 'no regressions' "$SMOKE/report_self.out"
sed 's/"incorrect":29/"incorrect":28/; s/"correct":5/"correct":6/' \
    BENCH_pr8.json > "$SMOKE/bench_flip.json"
if "$REPORT" BENCH_pr8.json "$SMOKE/bench_flip.json" > "$SMOKE/report_flip.out"; then
  echo "alive2-report failed to flag a verdict flip"; exit 1
fi
grep -q 'VERDICT FLIP' "$SMOKE/report_flip.out"
