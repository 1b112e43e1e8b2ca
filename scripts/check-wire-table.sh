#!/bin/sh
# The wire tag table is written twice — the `const TAG_` lines of
# crates/core/src/live_wire.rs and the §1.3 table of docs/DEPLOYMENT.md —
# and the wire version twice: WIRE_VERSION in crates/net/src/tcp.rs and
# the "currently N" of §1.1. Fails on any difference.
set -eu
cd "$(dirname "$0")/.."

code=$(sed -n 's/^const TAG_\([A-Z_]*\): u8 = \([0-9]*\);.*/\2 \1/p' crates/core/src/live_wire.rs | sort -n)
# Table rows `| 7   | SubQuerySol  | …`: CamelCase → UPPER_SNAKE.
docs=$(sed -n '/^### 1\.3 /,/^#### 1\.3\.1 /s/^| *\([0-9][0-9]*\) *| *\([A-Za-z]*\) *|.*/\1 \2/p' docs/DEPLOYMENT.md |
    sed 's/\([a-z]\)\([A-Z]\)/\1_\2/g' | tr '[:lower:]' '[:upper:]' | sort -n)
if [ -z "$code" ] || [ "$code" != "$docs" ]; then
    printf 'wire tags differ.\nlive_wire.rs:\n%s\ndocs/DEPLOYMENT.md §1.3:\n%s\n' "$code" "$docs" >&2
    exit 1
fi

version=$(sed -n 's/^pub const WIRE_VERSION: u8 = \([0-9]*\);.*/\1/p' crates/net/src/tcp.rs)
documented=$(sed -n 's/.*version, currently \([0-9]*\) .*/\1/p' docs/DEPLOYMENT.md)
if [ -z "$version" ] || [ "$version" != "$documented" ]; then
    echo "WIRE_VERSION is '$version' in tcp.rs, docs/DEPLOYMENT.md §1.1 says '$documented'" >&2
    exit 1
fi
echo "wire table: $(printf '%s\n' "$code" | wc -l | tr -d ' ') tags, version $version — code and docs agree"
