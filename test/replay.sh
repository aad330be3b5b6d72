#!/bin/sh
# Replay check: run `qr-dtm chaos ARGS --verbose`, then run the
# `qr-dtm scenario ...` line it prints with the same binary, and fail
# unless both print the same verdict block.
#
# usage: sh replay.sh QR_DTM_EXE CHAOS_ARGS...
exe=$1
shift
chaos=$("$exe" chaos "$@" --verbose)
line=$(printf '%s\n' "$chaos" | grep '^qr-dtm scenario ')
if [ -z "$line" ]; then
  echo "replay: chaos printed no 'qr-dtm scenario' line" >&2
  exit 1
fi
scenario=$(eval "\"\$exe\" ${line#qr-dtm }")
verdict() { awk '/^seed [0-9]+: /{p=1} /^qr-dtm |^chaos: /{p=0} p'; }
a=$(printf '%s\n' "$chaos" | verdict)
b=$(printf '%s\n' "$scenario" | verdict)
if [ -z "$a" ] || [ "$a" != "$b" ]; then
  printf 'replay: verdicts differ\n--- chaos\n%s\n--- %s\n%s\n' "$a" "$line" "$b" >&2
  exit 1
fi
