#!/bin/sh
# What a provider computes, how an exchange is priced, how a reply is
# counted and how a role is built are each written once under
# crates/core/src (PR 18); a regex is compiled in one place, and the
# provider's scan lends its rows instead of collecting them (PR 19).
# Fails when a second copy appears. Test modules (`mod tests` to end of
# file) and comment lines are not code.
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
sparql=../../sparql/src
# The bodies of the scan driver and of its collecting wrapper.
scan=$(awk '/^pub fn (for_each_extension|evaluate_pattern_with)/{on=1} on{print} on&&/^}/{on=0}' \
    "$sparql/eval.rs")
expect 'Regex::with_flags( callers under crates/sparql/src' \
    "$(code "$sparql"/*.rs | grep -c 'Regex::with_flags(' || true)" 1
expect 'collected scans (.match_pattern( / .matching() in provider.rs' \
    "$(code provider.rs | grep -cE '\.match_pattern\(|\.matching\(' || true)" 0
expect 'collected scans in for_each_extension / evaluate_pattern_with' \
    "$(echo "$scan" | grep -v '^ *//' | grep -cE '\.match_pattern\(|\.matching\(' || true)" 0
expect 'scan driver bodies found in eval.rs' "$(echo "$scan" | grep -c '^pub fn')" 2
[ "$bad" -eq 0 ] && echo 'exists once: provider compute, exchange pricing, reply accounting, role constructors, regex compilation, lending scan'
exit "$bad"
