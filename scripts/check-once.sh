#!/bin/sh
# What a provider computes, how an exchange is priced, how a reply is
# counted and how a role is built are each written once under
# crates/core/src (PR 18). Fails when a second copy appears. Test modules
# (`mod tests` to end of file) and comment lines are not code.
set -eu
cd "$(dirname "$0")/../crates/core/src"

# code FILE…: the non-test, non-comment lines of the files.
code() {
    for f in "$@"; do awk '/^mod tests/{exit} {print}' "$f"; done | grep -v '^ *//'
}
bad=0
# expect WHAT FOUND WANT
expect() {
    if [ "$2" -ne "$3" ]; then
        echo "exists once: $1 — found $2, want $3" >&2
        bad=1
    fi
}
others=$(ls ./*.rs live/*.rs | grep -v '^./provider.rs$')
role='(LiveStorage|IndexNode|Coordinator) \{'

expect 'pattern evaluation outside provider.rs' \
    "$(code $others | grep -cE 'evaluate_pattern_with|eval::extend' || true)" 0
expect 'shuffle_partition( callers outside provider.rs' \
    "$(code $others | grep -v 'fn shuffle_partition(' | grep -c 'shuffle_partition(' || true)" 0
expect 'note_provider_contacted() calls in sim_backend.rs' \
    "$(code sim_backend.rs | grep -c 'self\.note_provider_contacted()' || true)" 1
expect 'cfg.ack_timeout uses in sim_backend.rs' \
    "$(code sim_backend.rs | grep -c 'cfg\.ack_timeout' || true)" 1
expect 'wire::encoded_len sites under live/' \
    "$(code live/*.rs | grep -c 'wire::encoded_len' || true)" 1
expect 'role struct literals (one per constructor)' \
    "$(code ./*.rs live/*.rs | grep -E "$role" | grep -cvE "(struct|impl|for) $role" || true)" 3
[ "$bad" -eq 0 ] && echo 'exists once: provider compute, exchange pricing, reply accounting, role constructors'
exit "$bad"
