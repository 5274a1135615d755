#!/bin/sh
# Non-test source lines per crate, the count the ROADMAP's line bars use:
#   sh ci/loc.sh
# Every line of every .rs file under crates/*/src and src counts (blank
# lines and comments included), except a `#[cfg(test)]` item: from the
# attribute to the brace that closes the item (or the `;` that ends a
# brace-less one). Each such item is skipped, not just the first one, so
# code that follows a test module still counts. Braces inside string and
# char literals and `//` comments are ignored.
set -eu

cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.rs' -print | sort | xargs awk '
    FNR == 1 { skip = 0 }
    {
      line = $0
      if (!skip && line ~ /^[ \t]*#\[cfg\(test\)\]/) { skip = 1; depth = 0; opened = 0 }
      if (!skip) { n++; next }
      gsub(/\\./, "", line)
      gsub(/"[^"]*"/, "", line)
      gsub(/'\''[^'\'']'\''/, "", line)
      sub(/\/\/.*/, "", line)
      sub(/^[ \t]*#\[cfg\(test\)\]/, "", line)
      for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") depth--
        else if (c == ";" && !opened) { skip = 0; break }
      }
      if (opened && depth == 0) skip = 0
    }
    END { print n + 0 }'
}

total=0
for d in crates/*/src src; do
  n=$(count "$d")
  total=$((total + n))
  printf '%7d  %s\n' "$n" "$d"
done
printf '%7d  total\n' "$total"
