#!/bin/sh
# ab.sh runs the benchmark's A/B protocol: two clean `git archive`
# copies, PARENT and the committed HEAD, run `bench/run.sh --trace 0` on
# one workload in PAIRS alternated pairs (the parent first in odd pairs,
# HEAD first in even ones), seeds SEED0, SEED0+1, ... It prints each
# run's six end-to-end metrics, then per metric each side's quartiles
# (Python's statistics.quantiles(n=4), which bench/compare.go matches
# from four values up), how many pairs HEAD won and a verdict:
#
#   unresolved  either side's IQR/median is wider than the metric's bound,
#               unless every HEAD run is better than every parent run
#   worse       HEAD's median is worse than the parent's by more than the
#               bound in BENCHMARK.json
#   claimable   HEAD won at least 9 in 10 of the pairs and its median is
#               better by more than the parent's IQR
#   same        none of these
#
# PARENT=HEAD is the A/A run that measures the box. The archives go in a
# fresh directory under ${TMPDIR:-/tmp}, removed on exit.
#
#   sh scripts/ab.sh PARENT WORKLOAD [PAIRS [SEED0]]    (make ab PARENT=… WORKLOAD=…)
set -eu

if [ $# -lt 2 ] || [ -z "$1" ] || [ -z "$2" ]; then
	echo "usage: $0 PARENT WORKLOAD [PAIRS [SEED0]]" >&2
	exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
workload=$2
pairs=${3:-10}
seed0=${4:-1}
root=$(git rev-parse --show-toplevel)
head=$(git rev-parse HEAD)

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
for side in parent head; do
	rev=$parent
	[ "$side" = head ] && rev=$head
	mkdir "$work/$side"
	git -C "$root" archive "$rev" | tar -x -C "$work/$side"
	# Build before the first pair, so neither side's first run pays it.
	bash "$work/$side/bench/run.sh" -h >/dev/null 2>&1 || true
done
echo "ab: $workload, $pairs pairs from seed $seed0: parent $(git rev-parse --short "$parent"), head $(git rev-parse --short "$head")"

# One line per run: pair seed side json.
i=1
while [ "$i" -le "$pairs" ]; do
	seed=$((seed0 + i - 1))
	order="parent head"
	[ $((i % 2)) -eq 0 ] && order="head parent"
	for side in $order; do
		line=$(bash "$work/$side/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 20 --trace 0 | tail -n 1)
		[ -n "$line" ] || line='{}'
		echo "$i $seed $side $line" >>"$work/runs"
	done
	i=$((i + 1))
done

awk -v pairs="$pairs" '
# BENCHMARK.json: the end-to-end metrics are the ones with a bound.
FNR == NR {
	if (match($0, /"name": *"[^"]*"/)) { s = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", s); sub(/"$/, "", s); name = s }
	if (match($0, /"better": *"[^"]*"/)) { s = substr($0, RSTART, RLENGTH); sub(/^"better": *"/, "", s); sub(/"$/, "", s); better[name] = s }
	if (match($0, /"bound": *[0-9.]+/)) { s = substr($0, RSTART, RLENGTH); sub(/^"bound": */, "", s); bound[name] = s + 0; order[++nm] = name }
	next
}
function value(json, key,    s) {
	if (!match(json, "\"" key "\":\\{\"value\":[-+0-9.eE]+")) return "NA"
	s = substr(json, RSTART, RLENGTH); sub(/.*:/, "", s)
	return s + 0
}
FNR == 1 {
	printf "%4s %6s  %-6s %-5s", "pair", "seed", "side", "run"
	for (k = 1; k <= nm; k++) printf " %14s", order[k]
	print ""
}
{
	p = $1; side = $3; json = $0; sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", json)
	ok = json ~ /"correct":true/ && json ~ /"failed":0[,}]/
	if (!ok) bad++
	line = sprintf("%4d %6d  %-6s %-5s", p, $2, side, ok ? "ok" : "FAIL")
	for (k = 1; k <= nm; k++) {
		v = value(json, order[k]); val[side, p, order[k]] = v
		line = line sprintf(" %14s", v == "NA" ? v : sprintf("%.1f", v))
	}
	print line
}
function quartiles(a, n,    i, j, t, q, delta) {
	for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
	if (n == 1) { Q[1] = Q[2] = Q[3] = a[1]; return }
	for (q = 1; q <= 3; q++) {
		j = int(q * (n + 1) / 4)
		if (j < 1) j = 1
		if (j > n - 1) j = n - 1
		delta = q * (n + 1) - j * 4
		Q[q] = (a[j] * (4 - delta) + a[j + 1] * delta) / 4
	}
}
END {
	printf "\n%-15s %30s %30s %5s %11s %9s  %s\n", "metric", "parent q1/median/q3", "head q1/median/q3", "won", "head/parent", "bound", "verdict"
	for (k = 1; k <= nm; k++) {
		m = order[k]; sign = better[m] == "higher" ? -1 : 1
		n = won = 0; split("", A); split("", B)
		for (p = 1; p <= pairs; p++) {
			a = val["parent", p, m]; b = val["head", p, m]
			if (a == "NA" || b == "NA") continue
			A[++n] = a; B[n] = b
			if (sign * (b - a) < 0) won++
		}
		if (n == 0) { printf "%-15s no complete pair\n", m; continue }
		quartiles(A, n); pq1 = Q[1]; pm = Q[2]; pq3 = Q[3]
		quartiles(B, n); hq1 = Q[1]; hm = Q[2]; hq3 = Q[3]
		change = pm == 0 ? 0 : sign * (hm - pm) / pm
		# quartiles() sorted A and B; apart: every HEAD run beats every parent run.
		apart = sign > 0 ? B[n] < A[1] : B[1] > A[n]
		wide = (pm != 0 && (pq3 - pq1) / pm > bound[m]) || (hm != 0 && (hq3 - hq1) / hm > bound[m])
		if (wide && !apart) verdict = "unresolved"
		else if (change > bound[m]) verdict = "worse"
		else if (won >= 0.9 * n && sign * (pm - hm) > pq3 - pq1) verdict = "claimable"
		else verdict = "same"
		printf "%-15s %9.1f %9.1f %9.1f  %9.1f %9.1f %9.1f %2d/%-2d %11.3f %9.2f  %s\n", m, pq1, pm, pq3, hq1, hm, hq3, won, n, pm == 0 ? 0 : hm / pm, bound[m], verdict
	}
	if (bad) printf "\n%d runs failed or reported failed operations\n", bad
}
' "$root/BENCHMARK.json" "$work/runs"
