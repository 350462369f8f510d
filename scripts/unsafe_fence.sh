#!/usr/bin/env bash
# Unsafe fence: all `unsafe` code lives in shims/coro (the coroutine context
# switch under `sim`). Every other library crate root must carry
# #![forbid(unsafe_code)], and the keyword must not be used anywhere else —
# bins, tests, benches and examples included, which the attribute on a
# library root does not reach.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for root in crates/*/src/lib.rs src/lib.rs shims/*/src/lib.rs; do
  [ "$root" = shims/coro/src/lib.rs ] && continue
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
    echo "unsafe fence: $root lacks #![forbid(unsafe_code)]" >&2
    fail=1
  fi
done

uses=$(grep -rnE --include='*.rs' --exclude-dir=target \
  '(^|[^[:alnum:]_])unsafe[[:space:]]*(\{|fn[[:space:]]|impl[[:space:](<]|trait[[:space:]]|extern[[:space:]])' \
  crates src tests examples shims benchmark/src | grep -v '^shims/coro/' || true)
if [ -n "$uses" ]; then
  echo "unsafe fence: \`unsafe\` outside shims/coro:" >&2
  echo "$uses" >&2
  fail=1
fi

[ "$fail" -eq 0 ] && echo "unsafe fence: ok"
exit "$fail"
