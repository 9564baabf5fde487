#!/bin/sh
# Durable-campaign smoke test (make resume, CI durable-campaigns job).
#
# Proves the CLI-level durability contract end to end, against the same
# binary a user runs:
#   1. an interrupted (-stop-after) run resumed from its -out directory
#      prints byte-identical output to a one-shot run;
#   2. a run killed by a real SIGTERM resumes the same way (if the tiny
#      campaign finishes before the signal lands, the resume degrades to a
#      full journal recovery — the diff still must hold);
#   3. two shards merged with `restore-sim merge` and rerun from the merged
#      directory print byte-identical output to a one-shot run; rerunning a
#      complete shard leaves its directory byte-identical and simulates no
#      golden cycle;
#   4. golden-image shards, one killed by SIGTERM and resumed, merge to the
#      same byte-identical output — the full warm-start durability stack in
#      one scenario;
#   5. a second SIGTERM mid-drain forces an immediate exit with the journal
#      flushed, and the resume still matches byte for byte;
#   6. the service daemon SIGKILLed mid-job restarts, auto-resumes, and
#      merges byte-identically (tools/service_smoke.sh runs the full
#      daemon matrix; this is the one-scenario version).
set -eu

workdir=$(mktemp -d)
daemon=""
cleanup() {
	[ -n "$daemon" ] && kill -9 "$daemon" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/restore-sim" ./cmd/restore-sim
sim=$workdir/restore-sim
args="-trials 0.05 -scale 0.5 -bench gzip"

echo "== one-shot baseline"
$sim $args fig4 >"$workdir/golden.txt"

echo "== interrupt mid-campaign (-stop-after), then resume"
$sim $args -out "$workdir/resume" -stop-after 5 fig4 >/dev/null
$sim $args -out "$workdir/resume" fig4 >"$workdir/resumed.txt"
diff "$workdir/golden.txt" "$workdir/resumed.txt"

echo "== SIGTERM mid-campaign, then resume"
# A larger campaign so the signal has something to interrupt.
killargs="-trials 0.25 -scale 0.5 -bench gzip"
$sim $killargs fig4 >"$workdir/golden_kill.txt"
$sim $killargs -out "$workdir/killed" fig4 >/dev/null 2>&1 &
pid=$!
sleep 1
kill -TERM "$pid" 2>/dev/null || true
wait "$pid" || true
$sim $killargs -out "$workdir/killed" fig4 >"$workdir/killed.txt"
diff "$workdir/golden_kill.txt" "$workdir/killed.txt"

echo "== two shards, merged, rerun from the merged directory"
$sim $args -out "$workdir/s1" -shard 1/2 fig4 >/dev/null
$sim $args -out "$workdir/s2" -shard 2/2 fig4 >/dev/null
$sim -out "$workdir/merged" merge "$workdir/s1" "$workdir/s2"
$sim $args -out "$workdir/merged" fig4 >"$workdir/merged.txt"
diff "$workdir/golden.txt" "$workdir/merged.txt"
cp -r "$workdir/s1" "$workdir/s1-copy"
$sim $args -out "$workdir/s1" -shard 1/2 -metrics "$workdir/s1-rerun.json" fig4 >/dev/null
diff -r "$workdir/s1-copy" "$workdir/s1"
cycles=$(grep -A 2 '"name": "campaign_uarch_golden_cycles_total"' "$workdir/s1-rerun.json" |
	sed -n 's/.*"value": \([0-9.e+-]*\).*/\1/p')
[ "$cycles" = 0 ] || {
	echo "rerunning a complete shard simulated ${cycles:-an unreported number of} golden cycles, want 0" >&2
	exit 1
}

echo "== golden-image shards, one killed, merged"
# Shard 1 writes the golden image; shard 2 restores it. Shard 2 is killed
# mid-campaign and resumed (same flags), then the shards merge; the rerun
# from the merged directory must match the one-shot baseline byte for byte.
gargs="$killargs -golden-image $workdir/golden-images"
$sim $gargs -out "$workdir/g1" -shard 1/2 fig4 >/dev/null
[ -n "$(ls "$workdir/golden-images"/*.golden 2>/dev/null)" ] || {
	echo "no golden image written" >&2
	exit 1
}
$sim $gargs -out "$workdir/g2" -shard 2/2 fig4 >/dev/null 2>&1 &
pid=$!
sleep 1
kill -TERM "$pid" 2>/dev/null || true
wait "$pid" || true
$sim $gargs -out "$workdir/g2" -shard 2/2 fig4 >/dev/null
$sim -out "$workdir/gmerged" merge "$workdir/g1" "$workdir/g2"
$sim $killargs -out "$workdir/gmerged" fig4 >"$workdir/gmerged.txt"
diff "$workdir/golden_kill.txt" "$workdir/gmerged.txt"
$sim ckpt inspect "$workdir"/golden-images/*.golden >/dev/null

echo "== double SIGTERM forces an immediate exit, journal still resumes"
# The first signal starts the drain; the second refuses to wait for it. A
# forced exit reports 130; if the tiny campaign drains before the second
# signal lands the run exits normally — either way the journal must hold
# exactly the completed trials and the resume must match byte for byte.
$sim $killargs -out "$workdir/forced" fig4 >/dev/null 2>&1 &
pid=$!
sleep 1
kill -TERM "$pid" 2>/dev/null || true
sleep 0.1
kill -TERM "$pid" 2>/dev/null || true
set +e
wait "$pid"
code=$?
set -e
[ "$code" -eq 130 ] || [ "$code" -eq 0 ] || {
	echo "double-signalled run exited $code, want 130 (forced) or 0 (drained)" >&2
	exit 1
}
$sim $killargs -out "$workdir/forced" fig4 >"$workdir/forced.txt"
diff "$workdir/golden_kill.txt" "$workdir/forced.txt"

echo "== service daemon: SIGKILL mid-job, restart, auto-resume, merged byte-identical"
droot=$workdir/service
dargs="-seed 42 -scale 0.5 -trials 2 -bench gzip"
$sim $dargs -out "$workdir/daemon-oneshot" fig2 >/dev/null
$sim -root "$droot" serve >"$workdir/serve.log" 2>&1 &
daemon=$!
for _ in $(seq 100); do
	$sim -root "$droot" jobs >/dev/null 2>&1 && break
	sleep 0.1
done
$sim -root "$droot" $dargs -shards 2 submit fig2 >/dev/null
sleep 0.5
kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
$sim -root "$droot" serve >>"$workdir/serve.log" 2>&1 &
daemon=$!
for _ in $(seq 100); do
	$sim -root "$droot" jobs >/dev/null 2>&1 && break
	sleep 0.1
done
$sim -root "$droot" -wait status job-000001 >/dev/null
diff -r "$droot/jobs/job-000001/merged" "$workdir/daemon-oneshot"
kill -TERM "$daemon"
wait "$daemon" || true
daemon=""

echo "resume smoke: OK"
