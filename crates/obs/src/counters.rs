//! The one declaration of a set of counters a host keeps for itself.
//!
//! A node's protocol counters (`rdfmesh_core::LiveStats`) and its socket
//! wire's (`rdfmesh_net::tcp::TransportStats`) are the host's own, not
//! registry entries: `GET /metrics` merges each set's `named()` view into
//! the registry's snapshot. [`counters!`](crate::counters) declares every
//! such set.

/// Declares a counter set, each counter once.
///
/// ```
/// rdfmesh_obs::counters! {
///     /// Cache traffic of one initiator.
///     pub struct Traffic / TrafficSnapshot;
///     /// Routing-cache hits.
///     hits, add_hits => CACHE_ROUTING_HITS;
///     /// Routing-cache misses.
///     misses, add_misses => CACHE_ROUTING_MISSES;
/// }
/// let traffic = Traffic::default();
/// traffic.add_hits(2);
/// let named = traffic.snapshot().named();
/// assert_eq!(named, vec![("cache.routing.hits", 2), ("cache.routing.misses", 0)]);
/// ```
///
/// # The generated items
///
/// * the set (`Traffic`): one private `AtomicU64` per counter, with an
///   `add_*` bump that skips a zero delta and a `snapshot()`;
/// * its snapshot (`TrafficSnapshot`): a public `u64` field of the same
///   name per counter, which takes the counter's documentation, and
///   `named()`, every counter under its [`crate::names`] constant, in
///   declaration order.
#[macro_export]
macro_rules! counters {
    (
        $(#[$set_doc:meta])* pub struct $set:ident / $snapshot:ident;
        $($(#[$doc:meta])* $field:ident, $add:ident => $metric:ident;)*
    ) => {
        $(#[$set_doc])*
        #[derive(Debug, Default)]
        pub struct $set {
            $($field: ::std::sync::atomic::AtomicU64,)*
        }

        #[doc = concat!("A point-in-time copy of a [`", stringify!($set), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $set {
            $(
                #[doc = concat!("Adds `delta` to [`", stringify!($snapshot), "::", stringify!($field), "`].")]
                pub fn $add(&self, delta: u64) {
                    if delta > 0 {
                        self.$field.fetch_add(delta, ::std::sync::atomic::Ordering::Relaxed);
                    }
                }
            )*

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                }
            }
        }

        impl $snapshot {
            /// Every counter under its `rdfmesh_obs::names` metric name, in
            /// declaration order.
            pub fn named(&self) -> Vec<(&'static str, u64)> {
                vec![$(($crate::names::$metric, self.$field),)*]
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::counters! {
        /// Three counters under three cache names.
        pub struct Three / ThreeSnapshot;
        /// First.
        first, add_first => CACHE_ROUTING_HITS;
        /// Second.
        second, add_second => CACHE_PROVIDER_HITS;
        /// Third.
        third, add_third => CACHE_RESULT_HITS;
    }

    #[test]
    fn each_counter_reads_back_under_its_own_name_in_declaration_order() {
        let set = Three::default();
        set.add_first(1);
        set.add_second(20);
        set.add_third(300);
        set.add_second(2);
        let snap = set.snapshot();
        assert_eq!(snap, ThreeSnapshot { first: 1, second: 22, third: 300 });
        assert_eq!(
            snap.named(),
            vec![("cache.routing.hits", 1), ("cache.provider.hits", 22), ("cache.result.hits", 300)]
        );
    }

    #[test]
    fn a_zero_delta_is_skipped() {
        let set = Three::default();
        set.add_first(0);
        set.add_third(0);
        assert_eq!(set.snapshot(), ThreeSnapshot::default());
        set.add_third(5);
        set.add_third(0);
        assert_eq!(set.snapshot(), ThreeSnapshot { first: 0, second: 0, third: 5 });
    }
}
