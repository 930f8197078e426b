//! Party identity.
//!
//! The paper identifies protocol participants as `P_1 … P_n`; a participant
//! identifier "is assumed to provide access to the information necessary
//! both to establish a connection with the party and to verify the party's
//! signature" (§4.5.3). [`PartyId`] is the name half of that assumption; the
//! [`crate::KeyRing`] and [`crate::Certificate`] machinery provide the rest.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// The identity of an organisation participating in information sharing.
///
/// The name is shared: a clone is a reference-count increment, while
/// equality, ordering, hashing and the JSON form are the string's.
///
/// # Example
///
/// ```
/// use b2b_crypto::PartyId;
/// let customer = PartyId::new("customer");
/// assert_eq!(customer.as_str(), "customer");
/// assert_eq!(customer.to_string(), "customer");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct PartyId(Arc<str>);

impl PartyId {
    /// Creates a party identifier from any string-like name.
    pub fn new(name: impl AsRef<str>) -> PartyId {
        PartyId(Arc::from(name.as_ref()))
    }

    /// Returns the identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PartyId({})", self.0)
    }
}

impl From<&str> for PartyId {
    fn from(s: &str) -> Self {
        PartyId::new(s)
    }
}

impl From<String> for PartyId {
    fn from(s: String) -> Self {
        PartyId::new(s)
    }
}

impl Deserialize for PartyId {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        String::from_value(v).map(PartyId::new)
    }
    fn read_json(r: &mut serde::json::Reader<'_>, depth: usize) -> Result<Self, serde::Error> {
        String::read_json(r, depth).map(PartyId::new)
    }
}

impl Borrow<str> for PartyId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for PartyId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn construction_and_display() {
        let p = PartyId::new("org1");
        assert_eq!(p.to_string(), "org1");
        assert_eq!(format!("{p:?}"), "PartyId(org1)");
    }

    #[test]
    fn conversions() {
        let a: PartyId = "x".into();
        let b: PartyId = String::from("x").into();
        assert_eq!(a, b);
    }

    #[test]
    fn borrow_str_allows_map_lookup_without_allocation() {
        let mut m: HashMap<PartyId, u32> = HashMap::new();
        m.insert(PartyId::new("supplier"), 1);
        assert_eq!(m.get("supplier"), Some(&1));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(PartyId::new("a") < PartyId::new("b"));
    }

    #[test]
    fn clones_share_the_name_and_json_is_the_string() {
        let p = PartyId::new("org1");
        let q = p.clone();
        assert!(std::ptr::eq(p.as_str(), q.as_str()));
        let value = p.to_value();
        assert_eq!(value, serde::Value::Str("org1".into()));
        assert_eq!(PartyId::from_value(&value).unwrap(), p);
    }
}
