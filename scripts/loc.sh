#!/usr/bin/env bash
# Non-test lines of code per crate: for every .rs file under crates/*/src,
# count the lines before the file's first `#[cfg(test)]` (the whole file
# when it has none), then print one row per crate and the total.
# A report, not a gate: it always exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    n=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { live = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
