//! The usual imports for writing property tests.

pub use crate::{
    any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Arbitrary, BoxedStrategy, Just,
    Strategy, TestCaseError, TestRng, Union,
};
