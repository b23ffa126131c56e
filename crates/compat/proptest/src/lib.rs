//! Offline stand-in for the crates.io `proptest` crate.
//!
//! This build environment has no network access, so the workspace vendors a
//! minimal, API-compatible subset of proptest 1.x: the `proptest!` macro,
//! range/tuple/`Just`/`any` strategies, `prop_map`, `prop_oneof!`,
//! `collection::vec`, `ProptestConfig::with_cases`, and the
//! `prop_assert*`/`prop_assume!` macros.
//!
//! Differences from the original, chosen to keep this small:
//!
//! - Inputs are drawn from a deterministic SplitMix64 stream seeded from the
//!   test name (override with the `PROPTEST_SEED` environment variable), so
//!   runs are reproducible by construction instead of via failure persistence
//!   files.
//! - There is no shrinking. On failure the harness prints the complete
//!   failing input before propagating the panic.
//! - `prop_assert!`/`prop_assert_eq!` panic immediately rather than
//!   accumulating a `TestCaseError`.
//!
//! The default number of cases per property is 64 (the original's 256 is
//! overkill without shrinking and slows `cargo test` noticeably).

#![expect(
    clippy::disallowed_methods,
    reason = "a stand-in for the crates.io crate reads PROPTEST_SEED itself, not through hep-ds"
)]

pub mod strategy;

pub mod arbitrary;
pub mod collection;
pub mod test_runner;

/// The glob import every proptest-using test module starts with.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a property; mirrors `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Asserts equality inside a property; mirrors `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Asserts inequality inside a property; mirrors `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// Discards the current case when the precondition fails. The harness
/// retries with fresh inputs instead of counting the case, erroring if the
/// discard ratio explodes (as the original does).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            $crate::test_runner::mark_discarded();
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            $crate::test_runner::mark_discarded();
            return;
        }
    };
}

/// Picks uniformly between several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::union_box($strategy)),+
        ])
    };
}

/// Declares property tests.
///
/// Supports the standard form: an optional
/// `#![proptest_config(ProptestConfig::with_cases(n))]` inner attribute
/// followed by `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]: expands each test item.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            // Bind each strategy once; the loop below shadows the binding
            // with the value drawn for the current case.
            $(let $arg = $strategy;)+
            let __max_attempts = __config.cases.saturating_mul(16).max(1024);
            let mut __passed: u32 = 0;
            let mut __attempts: u32 = 0;
            while __passed < __config.cases {
                __attempts += 1;
                assert!(
                    __attempts <= __max_attempts,
                    "proptest {}: too many discarded cases ({} passed of {} wanted \
                     after {} attempts); weaken the prop_assume! or the strategy",
                    stringify!($name),
                    __passed,
                    __config.cases,
                    __attempts - 1,
                );
                // Snapshot the stream so the failing inputs can be
                // re-drawn and printed only when a case actually fails —
                // passing cases pay no Debug-formatting cost.
                let __state = __rng.state();
                let __outcome = {
                    $(let $arg = $crate::strategy::Strategy::generate(&$arg, &mut __rng);)+
                    ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(move || $body))
                };
                match __outcome {
                    Ok(()) => {
                        if !$crate::test_runner::take_discarded() {
                            __passed += 1;
                        }
                    }
                    Err(__panic) => {
                        let mut __replay = $crate::test_runner::TestRng::from_state(__state);
                        let __inputs = format!(
                            concat!($(stringify!($arg), " = {:?}; "),+),
                            $(&$crate::strategy::Strategy::generate(&$arg, &mut __replay)),+
                        );
                        eprintln!(
                            "proptest {}: case {}/{} failed with inputs: {}",
                            stringify!($name),
                            __passed + 1,
                            __config.cases,
                            __inputs
                        );
                        ::std::panic::resume_unwind(__panic);
                    }
                }
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}
