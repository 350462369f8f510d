#!/usr/bin/env bash
# The one way this repo counts "code lines": non-blank lines that are not
# `//` comments, above a Rust file's first `#[cfg(test)]` — per file, then
# in total. Paths are files or directories (every *.rs below them); a
# leading <git-rev> counts that revision, otherwise the work tree.
#
#   scripts/code_lines.sh [<git-rev>] <path>...
set -euo pipefail
cd "$(dirname "$0")/.."

rev=""
if [ $# -gt 1 ] && [ ! -e "$1" ] && git rev-parse -q --verify "$1^{commit}" >/dev/null; then
  rev=$1
  shift
fi
[ $# -gt 0 ] || { echo "usage: $0 [<git-rev>] <path>..." >&2; exit 2; }

if [ -n "$rev" ]; then
  files() { git ls-tree -r --name-only "$rev" -- "$@"; }
  body() { git show "$rev:$1"; }
else
  files() { find "$@" -type f; }
  body() { cat "$1"; }
fi

total=0
while read -r file; do
  n=$(body "$file" | awk '/^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
                          !tests && !/^[[:space:]]*($|\/\/)/ { n++ }
                          END { print n + 0 }')
  printf '%7d  %s\n' "$n" "$file"
  total=$((total + n))
done < <(files "$@" | grep '\.rs$' | sort)
printf '%7d  total\n' "$total"
