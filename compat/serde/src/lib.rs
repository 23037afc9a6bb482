//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! patches `serde` to this crate (see `[patch.crates-io]` in the root
//! manifest). Instead of upstream's visitor architecture it uses a single
//! self-describing [`Value`] tree: `#[derive(Serialize)]` generates
//! [`Serialize::to_value`] and `#[derive(Deserialize)]` generates
//! [`Deserialize::from_value`], following the `serde_json` data
//! conventions (structs as maps, newtype structs transparent, unit enum
//! variants as strings, data-carrying variants as single-key maps). A
//! small JSON reader/writer on [`Value`], with [`to_json`] and
//! [`from_json`] for any serializable type, rounds the model out so
//! reports can be exported without any external dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

mod json;
mod value;

pub use json::{from_json, to_json};
pub use value::Value;

/// Error produced when a [`Value`] does not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// Creates an error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl core::fmt::Display for DeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion of a value into the self-describing [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Reconstruction of a value from the self-describing [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when `v` does not have the expected shape.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Looks up `key` in a map's entry list (helper for derived code).
#[must_use]
pub fn map_get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

// ---------------------------------------------------------------- numbers

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v.as_u64().ok_or_else(|| {
                    DeError::custom(format!("expected unsigned integer, got {v:?}"))
                })?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_serde_uint!(u8, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v.as_i64().ok_or_else(|| {
                    DeError::custom(format!("expected integer, got {v:?}"))
                })?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_serde_int!(i16);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .ok_or_else(|| DeError::custom(format!("expected number, got {v:?}")))
    }
}

// ----------------------------------------------------------- other scalars

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::custom(format!("expected string, got {other:?}"))),
        }
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::custom(format!("expected sequence, got {other:?}"))),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                const ARITY: usize = [$($idx),+].len();
                match v {
                    Value::Seq(items) if items.len() == ARITY => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(DeError::custom(format!(
                        "expected {ARITY}-tuple, got {other:?}"
                    ))),
                }
            }
        }
    )+};
}
impl_serde_tuple!((A: 0, B: 1));

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (key_string(&k.to_value()), v.to_value()))
                .collect(),
        )
    }
}

/// Renders a serialized key as a JSON object key.
fn key_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()), Ok(42));
        assert_eq!(i16::from_value(&(-3i16).to_value()), Ok(-3));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u64, 2u64), (3, 4)];
        assert_eq!(Vec::<(u64, u64)>::from_value(&v.to_value()), Ok(v));
        let o: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&o.to_value()), Ok(None));
        assert_eq!(Option::<u8>::from_value(&Some(9u8).to_value()), Ok(Some(9)));
    }

    #[test]
    fn shape_mismatch_errors() {
        assert!(u8::from_value(&Value::Str("x".into())).is_err());
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(bool::from_value(&Value::U64(1)).is_err());
    }
}
