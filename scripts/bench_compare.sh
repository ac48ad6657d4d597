#!/usr/bin/env bash
# Perf regression gate for PR 7 (in-sim metrics registry + layered
# instrumentation): re-run the baseline sweep, measure the dispatch
# profiler's wall-clock overhead AND the metrics registry's events/sec
# overhead, run the hot-path and 10k-scale microbenchmarks, and join
# everything into BENCH_PR7.json (per-job best-of-N over BENCH_REPS
# repetitions, default 5; the jobs arrays record every rep). Exits 1 if
# mean events/sec regressed more than 10% against the recorded
# BENCH_PR6.json, if any recorded hot-path microbenchmark median got more
# than 10% slower, if the 10k-node topology build exceeds its 100 ms
# absolute ceiling, or if enabling `--metrics` costs more than 5% mean
# events/sec (the PR 7 acceptance bar). Events/sec is
# machine-state-dependent, so a missed gate first re-measures, then
# recalibrates: it rebuilds the commit that recorded the reference
# artifact and measures it on this machine, comparing like with like.
# bash + git + grep/sed/awk only — no jq.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR7.json}"
baseline_ref="BENCH_PR6.json"
reps="${BENCH_REPS:-5}"
base_log="$(mktemp)"
prof_log="$(mktemp)"
try_log="$(mktemp)"
trap 'rm -f "$base_log" "$prof_log" "$try_log" "$out.tmp"' EXIT

cargo build --release -p wsn-bench >/dev/null

# Serial (--jobs 1) so per-job wall times are not distorted by core
# sharing; $reps repetitions per mode with per-job minima so a
# background-noise spike in any single ~20 ms job cannot fake a regression
# (or hide one) — each job's best-of-$reps approaches its true cost.
common=(--no-csv --progress --jobs 1)
gate_sweep=(--quick --fields 2 --duration 30)
over_sweep=(--quick --fields 1 --duration 300)
one_sweep() { # one_sweep OUT_LOG [flags...] — appends one rep
    local keep="$1"
    shift
    cargo run --release -p wsn-bench --bin fig8 -- "${common[@]}" "$@" \
        >/dev/null 2>"$try_log"
    cat "$try_log" >>"$keep"
}

# All helpers accept a (possibly multi-rep) progress log or a BENCH_PR*.json
# artifact (whose job lines are indented), hence the unanchored match.
job_walls() { # per-(point,field,scheme) minimum wall ms, one per line
    sed -n 's/.*"job":"done","point":\([0-9]*\),"field":\([0-9]*\),"scheme":"\([a-z]*\)".*"wall_ms":\([0-9.]*\).*/\1_\2_\3 \4/p' "$1" |
        awk '{if (!($1 in m) || $2 < m[$1]) m[$1] = $2}
             END {for (k in m) print m[k]}'
}
wall_sum() { # total wall ms, summing each job's best rep
    job_walls "$1" | awk '{s+=$1} END {printf "%.1f", s}'
}
eps_mean() { # mean events_per_sec, each job's best rep
    sed -n 's/.*"job":"done","point":\([0-9]*\),"field":\([0-9]*\),"scheme":"\([a-z]*\)".*"events_per_sec":\([0-9]*\).*/\1_\2_\3 \4/p' "$1" |
        awk '{if (!($1 in m) || $2 > m[$1]) m[$1] = $2}
             END {s = 0; n = 0; for (k in m) {s += m[k]; n += 1}
                  printf "%.0f", s / n}'
}

# Interleave the two modes, alternating which goes first, so slow drift
# (CPU frequency, background load) hits both equally instead of skewing
# their difference. The regression sweep mirrors the earlier artifacts;
# the profiler-overhead pair uses 300 s runs because the ~20 ms quick jobs
# are smaller than this machine's scheduling noise.
: >"$base_log"
: >"$prof_log"
for i in $(seq "$reps"); do
    if [ $((i % 2)) -eq 1 ]; then
        one_sweep "$base_log" "${gate_sweep[@]}"
        one_sweep "$prof_log" "${gate_sweep[@]}" --profile
    else
        one_sweep "$prof_log" "${gate_sweep[@]}" --profile
        one_sweep "$base_log" "${gate_sweep[@]}"
    fi
done

over_base_log="$(mktemp)"
over_prof_log="$(mktemp)"
over_metrics_log="$(mktemp)"
metrics_dir="$(mktemp -d)"
trap 'rm -f "$base_log" "$prof_log" "$try_log" "$over_base_log" \
    "$over_prof_log" "$over_metrics_log" "$out.tmp"; rm -rf "$metrics_dir"' EXIT
# The overhead differences are a few percent of wall time — smaller than
# single-rep noise — so they get a deeper rep count than the gate sweep.
# Metrics runs sit between the plain and profiled runs of each rep so CPU
# drift hits all three modes equally; the snapshot files land in a scratch
# dir (byte-identical across reps, so overwriting is harmless).
over_reps="${BENCH_OVER_REPS:-$((reps + 3))}"
for i in $(seq "$over_reps"); do
    if [ $((i % 2)) -eq 1 ]; then
        one_sweep "$over_base_log" "${over_sweep[@]}"
        one_sweep "$over_metrics_log" "${over_sweep[@]}" --metrics "$metrics_dir"
        one_sweep "$over_prof_log" "${over_sweep[@]}" --profile
    else
        one_sweep "$over_prof_log" "${over_sweep[@]}" --profile
        one_sweep "$over_metrics_log" "${over_sweep[@]}" --metrics "$metrics_dir"
        one_sweep "$over_base_log" "${over_sweep[@]}"
    fi
done

# --- Hot-path microbenchmarks (PR 5) and the 10k-scale path (PR 6): the
# slab event queue, the PHY broadcast loop, the JSONL trace encoder, the
# diffusion handlers' building blocks (gradient table, exploratory cache,
# aggregation flush, truncation decision), the spatial-grid topology
# build, and a short 10k-node sim. Best-of-$micro_reps
# medians per benchmark; recorded in the artifact and gated against the
# reference artifact's recorded medians when present (a reference
# predating a benchmark carries no median for it, so against that
# reference this run only records).
micro_benches="event_queue/push_pop_10k event_queue/cancel_half_10k \
event_queue/churn_steady_64 phy/broadcast_grid36_10s trace/encode_mix \
diffusion/gradient_refresh diffusion/expl_record_choose \
diffusion/agg_offer_flush diffusion/truncate_decide \
topology/build_10k scale/sim_10k_2s"
micro_log="$(mktemp)"
trap 'rm -f "$base_log" "$prof_log" "$try_log" "$over_base_log" \
    "$over_prof_log" "$micro_log" "$out.tmp"' EXIT
micro_reps="${BENCH_MICRO_REPS:-3}"
for _ in $(seq "$micro_reps"); do
    cargo bench -p wsn-bench --bench micro >>"$micro_log" 2>/dev/null
done
micro_median() { # micro_median NAME — best (min) median ns across reps
    grep -F "$1 " "$micro_log" | sed -n 's/.*median *\([0-9]*\) ns.*/\1/p' |
        sort -n | head -1
}
for b in $micro_benches; do # every benchmark must have produced a number
    test -n "$(micro_median "$b")"
done

# PR 6 acceptance bar: the 10k-node grid topology build must stay under an
# absolute 100 ms ceiling, independent of any recorded reference.
topo_10k_ns="$(micro_median topology/build_10k)"
if awk -v ns="$topo_10k_ns" 'BEGIN {exit !(ns < 100000000)}'; then
    echo "OK: topology/build_10k median ${topo_10k_ns} ns (< 100 ms ceiling)"
else
    echo "FAIL: topology/build_10k median ${topo_10k_ns} ns exceeds the" \
         "100 ms ceiling"
    exit 1
fi

jobs_n="$(grep -c '^{"job"' "$base_log")"
test "$jobs_n" -gt 0
grep -q '"profile_ns"' "$prof_log"  # the profiler actually ran

eps_now="$(eps_mean "$base_log")"
base_wall="$(wall_sum "$over_base_log")"
prof_wall="$(wall_sum "$over_prof_log")"
overhead_pct="$(awk -v b="$base_wall" -v p="$prof_wall" \
    'BEGIN {printf "%.1f", (p - b) * 100.0 / b}')"

# PR 7 acceptance bar: the metrics registry must cost at most 5% mean
# events/sec on the overhead sweep. Noise spikes re-measure once (both
# modes, keeping the interleave) before declaring a real miss.
metrics_gate() { # metrics_gate BASE_EPS METRICS_EPS — 0 inside the budget
    awk -v b="$1" -v m="$2" 'BEGIN {exit !(m >= b * 0.95)}'
}
over_eps_base="$(eps_mean "$over_base_log")"
over_eps_metrics="$(eps_mean "$over_metrics_log")"
if ! metrics_gate "$over_eps_base" "$over_eps_metrics"; then
    echo "metrics overhead gate missed; re-measuring before failing..."
    for _ in $(seq "$over_reps"); do
        one_sweep "$over_metrics_log" "${over_sweep[@]}" --metrics "$metrics_dir"
        one_sweep "$over_base_log" "${over_sweep[@]}"
    done
    over_eps_base="$(eps_mean "$over_base_log")"
    over_eps_metrics="$(eps_mean "$over_metrics_log")"
fi
metrics_overhead_pct="$(awk -v b="$over_eps_base" -v m="$over_eps_metrics" \
    'BEGIN {printf "%.1f", (b - m) * 100.0 / b}')"
# The verdict is settled before the artifact is written and stamped into
# it, so a committed artifact cannot record a failed gate as passed.
if metrics_gate "$over_eps_base" "$over_eps_metrics"; then
    metrics_gate_verdict=pass
else
    metrics_gate_verdict=fail
fi

{
    printf '{"bench":"fig8 --quick --fields 2 --duration 30 --jobs 1",\n'
    printf ' "reps":%s,\n' "$reps"
    printf ' "events_per_sec_mean":%s,\n' "$eps_now"
    printf ' "overhead_bench":"fig8 --quick --fields 1 --duration 300 --jobs 1",\n'
    printf ' "wall_ms_total":%s,\n' "$base_wall"
    printf ' "profiled_wall_ms_total":%s,\n' "$prof_wall"
    printf ' "profiler_overhead_pct":%s,\n' "$overhead_pct"
    printf ' "metrics_events_per_sec_mean":%s,\n' "$over_eps_metrics"
    printf ' "metrics_off_events_per_sec_mean":%s,\n' "$over_eps_base"
    printf ' "metrics_overhead_pct":%s,\n' "$metrics_overhead_pct"
    printf ' "metrics_overhead_gate":"%s",\n' "$metrics_gate_verdict"
    printf ' "micro_reps":%s,\n' "$micro_reps"
    printf ' "micro_median_ns":{'
    sep=''
    for b in $micro_benches; do
        printf '%s\n  "%s":%s' "$sep" "$b" "$(micro_median "$b")"
        sep=','
    done
    printf '\n },\n'
    printf ' "jobs":[\n'
    grep '^{"job"' "$base_log" | sed 's/^/  /;$!s/$/,/'
    printf ' ],\n'
    printf ' "profiled_jobs":[\n'
    grep '^{"job"' "$prof_log" | sed 's/^/  /;$!s/$/,/'
    printf ' ],\n'
    printf ' "metrics_jobs":[\n'
    grep '^{"job"' "$over_metrics_log" | sed 's/^/  /;$!s/$/,/'
    printf ' ]}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out ($jobs_n job records, profiler overhead ${overhead_pct}% wall," \
     "metrics overhead ${metrics_overhead_pct}% events/sec)"

if [ "$metrics_gate_verdict" = pass ]; then
    echo "OK: metrics-on overhead ${metrics_overhead_pct}% events/sec" \
         "(${over_eps_metrics} vs ${over_eps_base}, <= 5% ceiling)"
else
    echo "FAIL: metrics-on overhead ${metrics_overhead_pct}% events/sec" \
         "exceeds the 5% ceiling (${over_eps_metrics} vs ${over_eps_base})"
    exit 1
fi

gate() { # gate EPS REF — 0 inside the 10% budget, 1 regressed
    awk -v now="$1" -v ref="$2" 'BEGIN {exit !(now >= ref * 0.9)}'
}

calibrate_ref() { # sets eps_ref_now by measuring the reference commit here
    local ref_commit ref_root ref_wt ref_log
    ref_commit="$(git log -n 1 --format=%H -- "$baseline_ref")"
    [ -n "$ref_commit" ] || return 1
    echo "calibrating: building reference commit ${ref_commit:0:12} and" \
         "measuring it on this machine..."
    ref_root="$(mktemp -d)"
    ref_wt="$ref_root/wt"
    ref_log="$ref_root/progress.log"
    git worktree add --detach "$ref_wt" "$ref_commit" >/dev/null 2>&1 || {
        rm -rf "$ref_root"
        return 1
    }
    (
        cd "$ref_wt"
        cargo build --release -p wsn-bench >/dev/null
        for _ in $(seq "$reps"); do
            cargo run --release -p wsn-bench --bin fig8 -- \
                "${common[@]}" "${gate_sweep[@]}" >/dev/null 2>>"$ref_log"
        done
    )
    eps_ref_now="$(eps_mean "$ref_log")"
    git worktree remove --force "$ref_wt" >/dev/null 2>&1 || true
    rm -rf "$ref_root"
    [ -n "$eps_ref_now" ]
}

if [ -f "$baseline_ref" ]; then
    eps_ref="$(eps_mean "$baseline_ref")"
    echo "mean events/sec: $eps_now (reference $eps_ref in $baseline_ref)"
    if ! gate "$eps_now" "$eps_ref"; then
        # A shared box can stall for whole seconds; re-measure once before
        # declaring a real regression, folding the extra reps in.
        echo "gate missed; re-measuring before failing..."
        for _ in $(seq "$reps"); do
            one_sweep "$base_log" "${gate_sweep[@]}"
        done
        eps_now="$(eps_mean "$base_log")"
        echo "re-measured mean events/sec: $eps_now"
    fi
    if ! gate "$eps_now" "$eps_ref"; then
        # Still out of budget. The recorded number came from a different
        # machine state (CPU frequency, co-tenants), so absolute events/sec
        # may be incomparable across sessions: rebuild the commit that
        # recorded the reference and measure it here and now, then gate on
        # the drift-free comparison.
        if calibrate_ref; then
            echo "reference measured now: $eps_ref_now events/sec" \
                 "(recorded: $eps_ref)"
            eps_ref="$eps_ref_now"
        fi
    fi
    if gate "$eps_now" "$eps_ref"; then
        awk -v now="$eps_now" -v ref="$eps_ref" 'BEGIN {
            printf "OK: within the 10%% regression budget (%+.1f%%)\n",
                   (now - ref) * 100.0 / ref}'
    else
        awk -v now="$eps_now" -v ref="$eps_ref" 'BEGIN {
            printf "FAIL: events/sec regressed %.1f%% (>10%% budget)\n",
                   (ref - now) * 100.0 / ref}'
        exit 1
    fi

    # The microbenchmark gate: regression means a *higher* median (ns), so
    # the budget runs the other way from events/sec. References come from
    # the "micro_median_ns" object of the recorded artifact; an artifact
    # without one (pre-PR 5) just gets today's numbers recorded.
    micro_fail=0
    micro_gated=0
    for b in $micro_benches; do
        m_ref="$(grep -o "\"$b\":[0-9]*" "$baseline_ref" |
            sed 's/.*://' | head -1 || true)"
        [ -n "$m_ref" ] || continue
        micro_gated=1
        m_now="$(micro_median "$b")"
        if awk -v now="$m_now" -v ref="$m_ref" \
            'BEGIN {exit !(now <= ref * 1.1)}'; then
            awk -v b="$b" -v now="$m_now" -v ref="$m_ref" 'BEGIN {
                printf "OK: %s median %d ns (ref %d ns, %+.1f%%)\n",
                       b, now, ref, (now - ref) * 100.0 / ref}'
        else
            awk -v b="$b" -v now="$m_now" -v ref="$m_ref" 'BEGIN {
                printf "FAIL: %s median %d ns regressed %.1f%% over %d ns\n",
                       b, now, (now - ref) * 100.0 / ref, ref}'
            micro_fail=1
        fi
    done
    if [ "$micro_gated" -eq 0 ]; then
        echo "note: $baseline_ref records no microbenchmark medians;" \
             "recorded today's in $out for the next gate"
    fi
    test "$micro_fail" -eq 0
else
    echo "note: no $baseline_ref reference; skipping the regression gate"
fi
