#!/bin/sh
# Symbolise the samples examples/host_profile.rs wrote and print where
# the host time went: each function's share of samples as the innermost
# frame (self), as any frame (inclusive), and self time by crate.
#
#   .github/host-profile.sh BINARY SAMPLES [TOP]
#
# BINARY is the host_profile executable that took the samples (built
# with RUSTFLAGS="-C force-frame-pointers=yes"), SAMPLES one of the files
# it wrote (a line per sample, innermost frame first; a frame is a
# 16-digit hex address in the executable's numbering, or `[library]`).
# TOP (default 25) bounds each table. Needs nm, sort and a POSIX awk.
set -eu
bin=$1
samples=$2
top=${3:-25}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tab=$(printf '\t')
export LC_ALL=C

# Function symbols by address, hash suffixes cut: "addr TAB 0 TAB name".
nm -C --defined-only "$bin" |
  awk '$2 ~ /^[tTwW]$/ { name = substr($0, 20); sub(/::h[0-9a-f]+$/, "", name)
                         print $1 "\t0\t" name }' > "$tmp/syms"
# Every distinct address sampled: "addr TAB 1".
tr ' ' '\n' < "$samples" | grep -v -e '^\[' -e '^$' | sort -u |
  awk '{ print $1 "\t1" }' > "$tmp/pcs"
# Fixed-width hex sorts as numbers do, so one merged pass gives each
# address the last symbol at or below it.
sort -t "$tab" -k1,1 -k2,2 "$tmp/syms" "$tmp/pcs" |
  awk -F '\t' '$2 == "0" { sym = $3; next }
               { print $1 "\t" (sym == "" ? "?" : sym) }' > "$tmp/names"

awk -F '\t' -v tmp="$tmp" '
  NR == FNR { name[$1] = $2; next }
  {
    n++
    depth = split($0, f, " ")
    for (i = 1; i <= depth; i++) {
      fn = (f[i] in name) ? name[f[i]] : f[i]
      if (i == 1) {
        self[fn]++
        c = fn
        sub(/^</, "", c)
        sub(/::.*/, "", c)
        crate[c]++
      }
      if (!(fn in seen)) { seen[fn] = 1; incl[fn]++ }
    }
    for (k in seen) delete seen[k]
  }
  END {
    for (k in self) printf "%6.2f %%  %s\n", 100 * self[k] / n, k > (tmp "/self")
    for (k in incl) printf "%6.2f %%  %s\n", 100 * incl[k] / n, k > (tmp "/incl")
    for (k in crate) printf "%6.2f %%  %s\n", 100 * crate[k] / n, k > (tmp "/crate")
    print n > (tmp "/n")
  }' "$tmp/names" "$samples"

echo "$samples: $(cat "$tmp/n") samples"
for t in self incl crate; do
  case $t in
    self) echo "--- self (innermost frame)" ;;
    incl) echo "--- inclusive (anywhere on the stack)" ;;
    crate) echo "--- self by crate" ;;
  esac
  sort -rn "$tmp/$t" | head -n "$top"
done
