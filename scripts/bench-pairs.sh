#!/usr/bin/env bash
# Paired parent/change runs of one benchmark workload: the recipe of
# .claude/skills/verify/SKILL.md ("Showing a wall-clock claim").
#
#   scripts/bench-pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [--seconds S] SEED...
#
# One untraced pair per SEED, alternating which side runs first. Prints
# every run as it finishes (`pair seed side metric value`), then per
# end-to-end metric each side's median and quartiles, the pairs won (ties
# count for neither) and a verdict, the first that applies:
#   gain          at least 10 pairs, at least 9 in 10 won, and the medians
#                 further apart than the parent's quartiles;
#   worse         the change's median is worse than the parent's by more
#                 than the metric's `bound` in BENCHMARK.json (a fraction);
#   unresolved    the parent's quartile spread is as wide as the bound and
#                 not every change run beats every parent run;
#   within bound  otherwise.
# The two binaries are `pod-benchmark` builds of the two commits from
# identical benchmark code.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD [--seconds S] SEED..." >&2
    exit 2
}

[ $# -ge 4 ] || usage
parent=$1 change=$2 workload=$3
shift 3
seconds=15
if [ "$1" = --seconds ]; then
    [ $# -ge 3 ] || usage
    seconds=$2
    shift 2
fi

# Which way each end-to-end metric is better, and its bound, from the
# benchmark's manifest.
manifest="$(dirname "$0")/../BENCHMARK.json"
better=$(sed -n '/"end_to_end"/,/"per_layer"/p' "$manifest" |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1=\2=\3/p' |
    tr '\n' ' ')

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

pair=0
for seed in "$@"; do
    pair=$((pair + 1))
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        "$bin" --workload "$workload" --seconds "$seconds" --trace 0 --seed "$seed" |
            awk -v pair="$pair" -v seed="$seed" -v side="$side" -v w="$workload" \
                '$1 == w && NF >= 3 { print pair, seed, side, $2, $3 }' | tee -a "$runs"
    done
done

awk -v better="$better" -v workload="$workload" -v pairs="$pair" '
function quantile(a, n, p,    h, lo, hi) {
    h = (n - 1) * p; lo = int(h); hi = lo + 1 < n ? lo + 1 : lo
    return a[lo + 1] + (h - lo) * (a[hi + 1] - a[lo + 1])
}
function summarize(metric, side, out,    n, i, j, t, a) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((metric, side, i) in v) a[++n] = v[metric, side, i]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    out["q1"] = quantile(a, n, 0.25); out["median"] = quantile(a, n, 0.5); out["q3"] = quantile(a, n, 0.75)
    out["min"] = a[1]; out["max"] = a[n]
    printf "  %-6s median %-12.6g q1 %-12.6g q3 %-12.6g n %d\n", side, out["median"], out["q1"], out["q3"], n
}
BEGIN {
    n = split(better, kv, " ")
    for (i = 1; i <= n; i++) { split(kv[i], d, "="); dir[d[1]] = d[2]; bound[d[1]] = d[3] }
}
# How much worse `c` is than `p` as a fraction of `p` (negative: better).
function worse_by(metric, c, p,    d) {
    d = dir[metric] == "lower" ? c - p : p - c
    if (p == 0) return d > 0 ? 1e300 : d < 0 ? -1e300 : 0
    return d / (p < 0 ? -p : p)
}
{
    if (!($4 in seen)) { seen[$4] = 1; order[++metrics] = $4 }
    v[$4, $3, $1] = $5
}
END {
    printf "\n== %s: %d pair%s ==\n", workload, pairs, pairs == 1 ? "" : "s"
    for (m = 1; m <= metrics; m++) {
        metric = order[m]
        if (!(metric in dir)) continue
        printf "%s (%s is better)\n", metric, dir[metric]
        summarize(metric, "parent", p); summarize(metric, "change", c)
        won = lost = tied = 0
        for (i = 1; i <= pairs; i++) {
            delta = v[metric, "change", i] - v[metric, "parent", i]
            if (dir[metric] == "lower") delta = -delta
            if (delta > 0) won++; else if (delta < 0) lost++; else tied++
        }
        gap = c["median"] - p["median"]; if (gap < 0) gap = -gap
        printf "  change/parent %.3f; change won %d, parent won %d, tied %d; medians %.6g apart, parent quartiles %.6g apart\n",
            p["median"] != 0 ? c["median"] / p["median"] : 0, won, lost, tied, gap, p["q3"] - p["q1"]
        spread = p["median"] != 0 ? (p["q3"] - p["q1"]) / (p["median"] < 0 ? -p["median"] : p["median"]) : 0
        separated = dir[metric] == "lower" ? c["max"] < p["min"] : c["min"] > p["max"]
        if (pairs >= 10 && won * 10 >= pairs * 9 && gap > p["q3"] - p["q1"] && worse_by(metric, c["median"], p["median"]) < 0)
            verdict = "gain"
        else if (worse_by(metric, c["median"], p["median"]) > bound[metric])
            verdict = "worse"
        else if (spread >= bound[metric] && !separated)
            verdict = "unresolved"
        else
            verdict = "within bound"
        printf "  verdict: %s (bound %s)\n", verdict, bound[metric]
    }
    for (i = 1; i <= pairs; i++) { pf += v["ops_failed", "parent", i]; cf += v["ops_failed", "change", i] }
    printf "ops_failed (all runs): parent %d, change %d\n", pf, cf
}' "$runs"
