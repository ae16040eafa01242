//! A tiny, dependency-free, offline stand-in for the `proptest` crate.
//!
//! The container this repository builds in has no network access and no
//! vendored registry, so the real `proptest` cannot be fetched. This crate
//! implements exactly the slice of its API that our test suite uses:
//! the `proptest!` macro, `Strategy` with `prop_map`, `any::<T>()`,
//! integer/float range strategies, tuples, `Just`, `prop_oneof!`,
//! `collection::vec`, `option::of`, `bool::ANY`, `sample::Index`,
//! `prop_assert!`/`prop_assert_eq!`, `ProptestConfig`, and
//! `TestCaseError`.
//!
//! Semantics differ from the real crate in two deliberate ways:
//! inputs are drawn from a deterministic per-test SplitMix64 stream (no
//! OS entropy, so failures reproduce exactly), and there is **no
//! shrinking** — a failing case, whether a `prop_assert!` failed or the
//! body panicked, reports its case number, seed and message only.

pub mod test_runner {
    /// Runner configuration. Only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// A failed test case. `prop_assert!` and friends return this through
    /// the hidden `Result` the `proptest!` macro wraps each body in.
    #[derive(Debug)]
    pub enum TestCaseError {
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            Self::Fail(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Self::Fail(m) => write!(f, "{m}"),
            }
        }
    }

    impl std::error::Error for TestCaseError {}

    /// SplitMix64: tiny, fast, and good enough for test-input generation.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            Self {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }

        /// Uniform f64 in `[0, 1)` with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The message a panic was raised with (`panic!`'s `&str` or
    /// formatted `String`), for reporting a panicking case.
    pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        match payload.downcast_ref::<&str>() {
            Some(s) => s.to_string(),
            None => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        }
    }

    /// Compile-time FNV-1a over the test's path, used as its base seed so
    /// every test draws an independent, stable input stream.
    pub const fn fnv1a(s: &str) -> u64 {
        let bytes = s.as_bytes();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut i = 0;
        while i < bytes.len() {
            h = (h ^ bytes[i] as u64).wrapping_mul(0x100_0000_01b3);
            i += 1;
        }
        h
    }
}

pub mod strategy {
    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// A recipe for generating values. Unlike the real crate there is no
    /// value tree and no shrinking: `generate` draws one value.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Type-erased strategy handle, cheap to clone.
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            Self(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// Uniform choice among alternatives — the engine behind `prop_oneof!`.
    pub struct Union<T> {
        variants: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(variants: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!variants.is_empty(), "prop_oneof! needs at least one arm");
            Self { variants }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.variants.len() as u64) as usize;
            self.variants[idx].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128) - (self.start as u128);
                    (self.start as u128 + (rng.next_u64() as u128) % span) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as u128, *self.end() as u128);
                    assert!(lo <= hi, "empty range strategy");
                    (lo + (rng.next_u64() as u128) % (hi - lo + 1)) as $t
                }
            }

            impl Strategy for std::ops::RangeFrom<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as u128;
                    let span = (<$t>::MAX as u128) - lo + 1;
                    (lo + (rng.next_u64() as u128) % span) as $t
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

pub mod arbitrary {
    use std::marker::PhantomData;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> Self {
            let mut out = [0u8; N];
            for b in &mut out {
                *b = rng.next_u64() as u8;
            }
            out
        }
    }

    impl Arbitrary for crate::sample::Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            crate::sample::Index(rng.next_u64())
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T> Any<T> {
        pub const fn new() -> Self {
            Any(PhantomData)
        }
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::new()
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.end.saturating_sub(self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `vec(strategy, len_range)`: a vector whose length is drawn from the
    /// (half-open) range and whose elements come from `strategy`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            // Bias toward Some, matching the real crate's default weighting.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod bool {
    /// `proptest::bool::ANY` — either boolean, uniformly.
    pub const ANY: crate::arbitrary::Any<::core::primitive::bool> = crate::arbitrary::Any::new();
}

pub mod sample {
    /// An index into a collection whose size is unknown at generation
    /// time; resolved against a concrete length with [`Index::index`].
    #[derive(Clone, Copy, Debug)]
    pub struct Index(pub(crate) u64);

    impl Index {
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "assertion failed: `{:?}` == `{:?}`",
            lhs,
            rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "assertion failed: `{:?}` == `{:?}`: {}",
            lhs,
            rhs,
            format!($($fmt)+)
        );
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// The test-defining macro. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` (the attribute is written by the caller, as with the
/// real crate) that runs the body against `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            const SEED: u64 =
                $crate::test_runner::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cfg.cases {
                let mut rng = $crate::test_runner::TestRng::from_seed(
                    SEED ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                // A panic in the body fails the case like a `prop_assert!`
                // does, so it names the case and seed too.
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    move || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::core::result::Result::Ok(())
                    },
                ));
                let failure = match result {
                    ::core::result::Result::Ok(::core::result::Result::Ok(())) => continue,
                    ::core::result::Result::Ok(::core::result::Result::Err(e)) => e.to_string(),
                    ::core::result::Result::Err(payload) => $crate::test_runner::panic_message(&*payload),
                };
                panic!(
                    "proptest {} failed at case {}/{} (seed {:#x}): {}",
                    stringify!($name),
                    case + 1,
                    cfg.cases,
                    SEED,
                    failure
                );
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A body that panics (here, dividing by a drawn zero) on some
        /// case must still report which case and seed, with the panic's
        /// own message after them.
        #[test]
        #[should_panic(expected = "failed at case")]
        fn a_panicking_body_reports_its_case(d in 0u32..4) {
            let _ = 12 / d;
        }
    }

    #[test]
    fn panic_messages_survive_the_unwind() {
        let caught = std::panic::catch_unwind(|| {
            proptest! {
                fn divides(d in 0u32..4) {
                    let _ = 12 / d;
                }
            }
            divides();
        });
        let msg = crate::test_runner::panic_message(&*caught.unwrap_err());
        assert!(msg.starts_with("proptest divides failed at case "), "{msg}");
        assert!(msg.contains("(seed 0x"), "{msg}");
        assert!(msg.ends_with("attempt to divide by zero"), "{msg}");
    }
}
