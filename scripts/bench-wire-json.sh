#!/bin/sh
# bench-wire-json.sh: run BenchmarkWireRoundTrip (one lease->execute->result
# cycle per op over the wire) and convert the output into a small JSON
# artifact, so the per-commit transport latency and coordinator-bytes-per-op
# are trackable without parsing bench text.
#
# Usage: bench-wire-json.sh [output.json]   (default BENCH_dist_wire.json)
#
# It also gates both numbers against absolute ceilings so a regression
# fails the CI step instead of silently shipping:
#   * coordinator bytes per op <= 150 (119-121 B/op measured when set);
#   * ns per op <= 49000, the median of the retired HTTP/JSON transport's
#     runs of this same benchmark on the host the bound was set on (2-core
#     AMD EPYC, go1.24); the framed wire measured 37-44 us/op there. The
#     ceiling was not measured on other host types.
set -eu

OUT="${1:-BENCH_dist_wire.json}"
COUNT="${BENCH_WIRE_ITERS:-2000x}"
TXT="$(mktemp)"
trap 'rm -f "$TXT"' EXIT INT TERM

go test -run '^$' -bench 'BenchmarkWireRoundTrip$' -benchtime "$COUNT" ./internal/dist/ | tee "$TXT"

awk -v out="$OUT" -v maxb=150 -v maxns=49000 '
    /^BenchmarkWireRoundTrip/ && / ns\/op/ {
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op") ns = $(i - 1)
            if ($(i) == "coordB/op") bytes = $(i - 1)
        }
    }
    END {
        if (ns == "" || bytes == "") {
            print "FAIL: benchmark output missing ns/op or coordB/op" > "/dev/stderr"
            exit 1
        }
        printf "{\n" > out
        printf "  \"ns_per_op\": %s,\n", ns > out
        printf "  \"coord_bytes_per_op\": %s\n", bytes > out
        printf "}\n" > out
        if (bytes + 0 > maxb + 0) {
            printf "FAIL: %s coordinator B/op (want <= %s)\n", bytes, maxb > "/dev/stderr"
            exit 1
        }
        if (ns + 0 > maxns + 0) {
            printf "FAIL: %s ns/op (want <= %s)\n", ns, maxns > "/dev/stderr"
            exit 1
        }
        printf "OK: %s coordinator B/op (<= %s), %s ns/op (<= %s)\n", bytes, maxb, ns, maxns
    }
' "$TXT"
echo "wrote $OUT"
