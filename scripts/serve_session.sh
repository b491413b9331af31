#!/bin/sh
# One closed-loop session of the sweep service, the unit `bench-gate`
# times for `vex serve` and `vex submit`:
#
#     scripts/serve_session.sh VEX
#
# Starts `VEX serve --workers 1` on a fresh journal in a temporary
# directory, submits four quick-scale specs (one mix each, four
# techniques, four threads) cold and then each again, which the result
# cache must answer whole, and drains the server with SIGTERM. Every
# process is the binary VEX, so a wrapper that runs this script with one
# binary times that binary's server, worker and client together. Exits
# non-zero if any step fails; the server's log is printed then.
set -eu

VEX=$1
DIR=$(mktemp -d)
SERVER=
cleanup() {
    if [ -n "$SERVER" ] && kill -0 "$SERVER" 2>/dev/null; then
        kill -9 "$SERVER" 2>/dev/null || true
        cat "$DIR/serve.log" >&2 || true
    fi
    rm -rf "$DIR"
}
trap cleanup EXIT

for mix in llll lmmh mmhh hhhh; do
    cat > "$DIR/$mix.toml" <<EOF
name = "session-$mix"
scale = "quick"
techniques = ["CSMT", "SMT", "CCSI AS", "OOSI AS"]
threads = [4]
mixes = ["$mix"]
EOF
done

"$VEX" serve --workers 1 --journal "$DIR/serve.vexj" --port-file "$DIR/port" \
    2> "$DIR/serve.log" &
SERVER=$!
tries=0
until [ -s "$DIR/port" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 1000 ] || ! kill -0 "$SERVER" 2>/dev/null; then
        echo "serve_session: the server never wrote its port file" >&2
        exit 1
    fi
    sleep 0.01
done
ADDR=$(cat "$DIR/port")

for phase in cold cached; do
    for mix in llll lmmh mmhh hhhh; do
        "$VEX" submit "$DIR/$mix.toml" --connect "$ADDR" --out /dev/null --poll-ms 2 \
            2> "$DIR/submit.log" || { cat "$DIR/submit.log" >&2; exit 1; }
        if [ "$phase" = cached ] && ! grep -q " 0 newly scheduled" "$DIR/submit.log"; then
            echo "serve_session: the resubmission of $mix was not answered from the cache:" >&2
            cat "$DIR/submit.log" >&2
            exit 1
        fi
    done
done

kill -TERM "$SERVER"
status=0
wait "$SERVER" || status=$?
SERVER=
if [ "$status" -ne 0 ]; then
    echo "serve_session: the server's drain exited $status" >&2
    cat "$DIR/serve.log" >&2
    exit "$status"
fi
