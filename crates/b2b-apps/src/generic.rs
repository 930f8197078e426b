//! Generic JSON application objects: [`SharedCell`] for typed
//! application state and [`CompositeObject`] for coordinating the states of
//! multiple objects through a single coordination event (§4: "the
//! discussion … applies just as well to the use of a composite object to
//! coordinate the states of multiple objects").

use b2b_core::{B2BObject, CoordEvent, Decision};
use b2b_crypto::PartyId;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;

/// A typed shared object: any serde-serialisable value plus validation
/// closures.
///
/// This is the Rust idiom for the paper's observation that "given knowledge
/// of an application object's state access operations, the wrapper methods
/// … could be generated automatically" (§5): `SharedCell` generates the
/// byte-level plumbing, the application supplies typed rules.
///
/// # Example
///
/// ```
/// use b2b_apps::SharedCell;
/// use b2b_core::Decision;
/// use b2b_crypto::PartyId;
///
/// // A shared counter that may only grow.
/// let cell = SharedCell::new(0u64)
///     .with_validator(|_who, old: &u64, new: &u64| {
///         if new >= old { Decision::accept() } else { Decision::reject("counter may only grow") }
///     });
/// assert_eq!(*cell.value(), 0);
/// ```
pub struct SharedCell<T> {
    value: T,
    #[allow(clippy::type_complexity)]
    validator: Box<dyn Fn(&PartyId, &T, &T) -> Decision + Send>,
}

impl<T: fmt::Debug> fmt::Debug for SharedCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedCell({:?})", self.value)
    }
}

impl<T> SharedCell<T>
where
    T: Serialize + DeserializeOwned + Send + 'static,
{
    /// Wraps `value` with accept-everything validation.
    pub fn new(value: T) -> SharedCell<T> {
        SharedCell {
            value,
            validator: Box::new(|_, _, _| Decision::accept()),
        }
    }

    /// Sets the typed validation rule applied to proposed transitions:
    /// `(proposer, current, proposed) -> Decision`.
    pub fn with_validator(
        mut self,
        validator: impl Fn(&PartyId, &T, &T) -> Decision + Send + 'static,
    ) -> SharedCell<T> {
        self.validator = Box::new(validator);
        self
    }

    /// The current typed value.
    pub fn value(&self) -> &T {
        &self.value
    }

    fn decode(bytes: &[u8]) -> Result<T, String> {
        serde_json::from_slice(bytes).map_err(|e| format!("undecodable state: {e}"))
    }
}

impl<T> B2BObject for SharedCell<T>
where
    T: Serialize + DeserializeOwned + Send + 'static,
{
    fn get_state(&self) -> Vec<u8> {
        serde_json::to_vec(&self.value).expect("SharedCell state serialises")
    }

    fn apply_state(&mut self, state: &[u8]) {
        if let Ok(v) = Self::decode(state) {
            self.value = v;
        }
    }

    fn validate_state(&self, proposer: &PartyId, current: &[u8], proposed: &[u8]) -> Decision {
        let (cur, next) = match (Self::decode(current), Self::decode(proposed)) {
            (Ok(c), Ok(n)) => (c, n),
            (_, Err(e)) | (Err(e), _) => return Decision::reject(e),
        };
        (self.validator)(proposer, &cur, &next)
    }
}

/// One constituent of a [`CompositeObject`].
struct Component {
    name: String,
    object: Box<dyn B2BObject>,
}

/// Coordinates the states of several objects as one unit: a state change
/// to any component is validated and installed atomically with the others.
///
/// The composite state is the JSON map `{component name → component state
/// bytes}`; validation asks every component to validate its own slice and
/// accepts only if all accept.
pub struct CompositeObject {
    components: Vec<Component>,
}

impl fmt::Debug for CompositeObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.components.iter().map(|c| c.name.as_str()).collect();
        write!(f, "CompositeObject({names:?})")
    }
}

impl CompositeObject {
    /// Creates an empty composite.
    pub fn new() -> CompositeObject {
        CompositeObject {
            components: Vec::new(),
        }
    }

    /// Adds a named component.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used.
    pub fn with_component(
        mut self,
        name: impl Into<String>,
        object: impl B2BObject + 'static,
    ) -> CompositeObject {
        let name = name.into();
        assert!(
            self.components.iter().all(|c| c.name != name),
            "duplicate component name {name}"
        );
        self.components.push(Component {
            name,
            object: Box::new(object),
        });
        self
    }

    fn decode_map(bytes: &[u8]) -> Result<std::collections::BTreeMap<String, Vec<u8>>, String> {
        serde_json::from_slice(bytes).map_err(|e| format!("undecodable composite state: {e}"))
    }
}

impl Default for CompositeObject {
    fn default() -> Self {
        CompositeObject::new()
    }
}

impl B2BObject for CompositeObject {
    fn get_state(&self) -> Vec<u8> {
        let map: std::collections::BTreeMap<&str, Vec<u8>> = self
            .components
            .iter()
            .map(|c| (c.name.as_str(), c.object.get_state()))
            .collect();
        serde_json::to_vec(&map).expect("composite state serialises")
    }

    fn apply_state(&mut self, state: &[u8]) {
        if let Ok(map) = Self::decode_map(state) {
            for c in &mut self.components {
                if let Some(bytes) = map.get(&c.name) {
                    c.object.apply_state(bytes);
                }
            }
        }
    }

    /// Updates are JSON maps `{component name → delta bytes}`; each named
    /// component applies its own delta, the rest keep their state. This is
    /// how a composite "rolls up" partial updates into one coordination
    /// event.
    fn apply_update(&self, current: &[u8], update: &[u8]) -> Result<Vec<u8>, String> {
        let mut cur = Self::decode_map(current)?;
        let deltas: std::collections::BTreeMap<String, Vec<u8>> =
            serde_json::from_slice(update).map_err(|e| format!("undecodable update: {e}"))?;
        for (name, delta) in deltas {
            let component = self
                .components
                .iter()
                .find(|c| c.name == name)
                .ok_or_else(|| format!("update names unknown component {name}"))?;
            let empty = Vec::new();
            let slice = cur.get(&name).unwrap_or(&empty);
            let next = component.object.apply_update(slice, &delta)?;
            cur.insert(name, next);
        }
        serde_json::to_vec(&cur).map_err(|e| e.to_string())
    }

    fn validate_state(&self, proposer: &PartyId, current: &[u8], proposed: &[u8]) -> Decision {
        let (cur, next) = match (Self::decode_map(current), Self::decode_map(proposed)) {
            (Ok(c), Ok(n)) => (c, n),
            (_, Err(e)) | (Err(e), _) => return Decision::reject(e),
        };
        if next.len() != self.components.len()
            || !self.components.iter().all(|c| next.contains_key(&c.name))
        {
            return Decision::reject("composite state has wrong component set");
        }
        for c in &self.components {
            let empty = Vec::new();
            let cur_slice = cur.get(&c.name).unwrap_or(&empty);
            let next_slice = &next[&c.name];
            let d = c.object.validate_state(proposer, cur_slice, next_slice);
            if !d.is_accept() {
                return Decision::reject(format!(
                    "component {}: {}",
                    c.name,
                    d.reason.unwrap_or_default()
                ));
            }
        }
        Decision::accept()
    }

    fn coord_callback(&mut self, event: &CoordEvent) {
        for c in &mut self.components {
            c.object.coord_callback(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn who() -> PartyId {
        PartyId::new("p")
    }

    #[test]
    fn shared_cell_roundtrips_state() {
        let mut cell = SharedCell::new(vec![1u32, 2, 3]);
        let bytes = cell.get_state();
        cell.apply_state(&serde_json::to_vec(&vec![9u32]).unwrap());
        assert_eq!(*cell.value(), vec![9]);
        cell.apply_state(&bytes);
        assert_eq!(*cell.value(), vec![1, 2, 3]);
    }

    #[test]
    fn shared_cell_validator_enforces_rule() {
        let cell = SharedCell::new(10u64).with_validator(|_w, old, new| {
            if new > old {
                Decision::accept()
            } else {
                Decision::reject("must increase")
            }
        });
        let cur = cell.get_state();
        let ok = serde_json::to_vec(&11u64).unwrap();
        let bad = serde_json::to_vec(&5u64).unwrap();
        assert!(cell.validate_state(&who(), &cur, &ok).is_accept());
        assert!(!cell.validate_state(&who(), &cur, &bad).is_accept());
    }

    #[test]
    fn shared_cell_rejects_garbage_state() {
        let cell = SharedCell::new(0u64);
        let cur = cell.get_state();
        let d = cell.validate_state(&who(), &cur, b"not json");
        assert!(!d.is_accept());
    }

    #[test]
    fn default_update_is_overwrite() {
        let cell = SharedCell::new(1u64);
        let cur = cell.get_state();
        let upd = serde_json::to_vec(&2u64).unwrap();
        assert_eq!(cell.apply_update(&cur, &upd).unwrap(), upd);
        assert!(cell.validate_update(&who(), &cur, &upd).is_accept());
    }

    #[test]
    fn composite_validates_all_components() {
        let comp = CompositeObject::new()
            .with_component(
                "grower",
                SharedCell::new(0u64).with_validator(|_w, o, n| {
                    if n >= o {
                        Decision::accept()
                    } else {
                        Decision::reject("shrank")
                    }
                }),
            )
            .with_component("free", SharedCell::new(String::new()));
        let cur = comp.get_state();

        let mut next_map = CompositeObject::decode_map(&cur).unwrap();
        next_map.insert("grower".into(), serde_json::to_vec(&5u64).unwrap());
        let good = serde_json::to_vec(&next_map).unwrap();
        assert!(comp.validate_state(&who(), &cur, &good).is_accept());

        next_map.insert("grower".into(), serde_json::to_vec(&0u64).unwrap());
        let _same = serde_json::to_vec(&next_map).unwrap();
        next_map.insert("grower".into(), serde_json::to_vec(&u64::MAX).unwrap());
        // now break it: remove a component
        next_map.remove("free");
        let broken = serde_json::to_vec(&next_map).unwrap();
        assert!(!comp.validate_state(&who(), &cur, &broken).is_accept());
    }

    #[test]
    fn composite_apply_state_routes_slices() {
        let mut comp = CompositeObject::new()
            .with_component("a", SharedCell::new(1u64))
            .with_component("b", SharedCell::new(2u64));
        let mut map = CompositeObject::decode_map(&comp.get_state()).unwrap();
        map.insert("a".into(), serde_json::to_vec(&42u64).unwrap());
        comp.apply_state(&serde_json::to_vec(&map).unwrap());
        let got = CompositeObject::decode_map(&comp.get_state()).unwrap();
        assert_eq!(got["a"], serde_json::to_vec(&42u64).unwrap());
        assert_eq!(got["b"], serde_json::to_vec(&2u64).unwrap());
    }

    #[test]
    fn composite_update_routes_component_deltas() {
        // Components with append-semantics updates: byte-blob appenders.
        struct Appender(Vec<u8>);
        impl B2BObject for Appender {
            fn get_state(&self) -> Vec<u8> {
                self.0.clone()
            }
            fn apply_state(&mut self, s: &[u8]) {
                self.0 = s.to_vec();
            }
            fn validate_state(&self, _w: &PartyId, _c: &[u8], _p: &[u8]) -> Decision {
                Decision::accept()
            }
            fn apply_update(&self, current: &[u8], update: &[u8]) -> Result<Vec<u8>, String> {
                let mut next = current.to_vec();
                next.extend_from_slice(update);
                Ok(next)
            }
        }
        let comp = CompositeObject::new()
            .with_component("a", Appender(vec![1]))
            .with_component("b", Appender(vec![9]));
        let cur = comp.get_state();
        let update: std::collections::BTreeMap<String, Vec<u8>> =
            [("a".to_string(), vec![2, 3])].into_iter().collect();
        let next = comp
            .apply_update(&cur, &serde_json::to_vec(&update).unwrap())
            .unwrap();
        let map = CompositeObject::decode_map(&next).unwrap();
        assert_eq!(map["a"], vec![1, 2, 3], "named component applied its delta");
        assert_eq!(map["b"], vec![9], "unnamed component unchanged");

        // Unknown component names are rejected.
        let bad: std::collections::BTreeMap<String, Vec<u8>> =
            [("zzz".to_string(), vec![0])].into_iter().collect();
        assert!(comp
            .apply_update(&cur, &serde_json::to_vec(&bad).unwrap())
            .is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate component name")]
    fn composite_rejects_duplicate_names() {
        let _ = CompositeObject::new()
            .with_component("a", SharedCell::new(0u64))
            .with_component("a", SharedCell::new(1u64));
    }

    #[test]
    fn composite_rejects_component_veto_with_name_in_reason() {
        let comp = CompositeObject::new().with_component(
            "strict",
            SharedCell::new(0u64).with_validator(|_w, _o, _n| Decision::reject("no")),
        );
        let cur = comp.get_state();
        let mut map = CompositeObject::decode_map(&cur).unwrap();
        map.insert("strict".into(), serde_json::to_vec(&1u64).unwrap());
        let next = serde_json::to_vec(&map).unwrap();
        let d = comp.validate_state(&who(), &cur, &next);
        assert!(!d.is_accept());
        assert!(d.reason.unwrap().contains("strict"));
    }
}
