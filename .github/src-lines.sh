#!/bin/sh
# Lines of crate source, the figure a simplification quotes before and
# after. Prints two counts over every `crates/*/src` file: all of it,
# and each file read only up to its first `#[cfg(test)]` (so without
# the unit tests at its end). Then the five largest files by the second
# count, so a split, and any later regrowth, shows.
#
#   .github/src-lines.sh
set -eu
cd "$(dirname "$0")/.."
files() { find crates -path '*/src/*' -name '*.rs'; }
echo "crates/*/src lines: $(files | xargs cat | wc -l)"
echo "crates/*/src lines before #[cfg(test)]: $(files | xargs awk '
    /#\[cfg\(test\)\]/ { nextfile }
    { n++ }
    END { print n }')"
echo "largest files, lines before #[cfg(test)]:"
files | xargs awk '
    FNR == 1 { n[FILENAME] = 0 }
    /#\[cfg\(test\)\]/ { nextfile }
    { n[FILENAME]++ }
    END { for (f in n) print n[f], f }' | sort -k1,1nr -k2 | head -5 | sed 's/^/  /'
