//! Service advertising, discovery and registration (§3).
//!
//! Garnet's services are "all presented as logically separate and
//! distinct entities" (§3); consumers and services find each other
//! through this registry rather than hard-wired references, which is what
//! lets "mutually-unaware applications" coexist.

use std::collections::BTreeMap;

use crate::auth::Principal;

/// The role a registered service plays (Figure 1's boxes, plus consumer
/// processes, which also register so derived streams are discoverable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceKind {
    /// The Filtering Service.
    Filtering,
    /// The Dispatching Service.
    Dispatching,
    /// The Orphanage.
    Orphanage,
    /// The Location Service.
    Location,
    /// The Resource Manager.
    ResourceManager,
    /// The Actuation Service.
    Actuation,
    /// The Message Replicator.
    Replicator,
    /// The Super Coordinator.
    SuperCoordinator,
    /// A consumer process (possibly publishing derived streams).
    Consumer,
}

/// An advertisement: who offers what, where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceDescriptor {
    /// Unique registered name.
    pub name: String,
    /// Role.
    pub kind: ServiceKind,
    /// Bus endpoint the service listens on.
    pub endpoint: String,
    /// Owning principal.
    pub owner: Principal,
}

/// The registry itself: a deterministic, name-ordered table.
///
/// # Example
///
/// ```
/// use garnet_net::{Principal, ServiceDescriptor, ServiceKind, ServiceRegistry};
///
/// let mut reg = ServiceRegistry::new();
/// reg.advertise(ServiceDescriptor {
///     name: "filtering-0".into(),
///     kind: ServiceKind::Filtering,
///     endpoint: "bus://filtering-0".into(),
///     owner: Principal::new("system"),
/// });
/// assert_eq!(reg.discover_kind(ServiceKind::Filtering).len(), 1);
/// assert!(reg.lookup("filtering-0").is_some());
/// ```
#[derive(Debug, Default)]
pub struct ServiceRegistry {
    services: BTreeMap<String, ServiceDescriptor>,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advertises (or re-advertises) a service. Returns the previous
    /// descriptor under the same name, if any.
    pub fn advertise(&mut self, descriptor: ServiceDescriptor) -> Option<ServiceDescriptor> {
        self.services.insert(descriptor.name.clone(), descriptor)
    }

    /// Removes a service by name, returning its descriptor.
    pub fn withdraw(&mut self, name: &str) -> Option<ServiceDescriptor> {
        self.services.remove(name)
    }

    /// Looks up a service by exact name.
    pub fn lookup(&self, name: &str) -> Option<&ServiceDescriptor> {
        self.services.get(name)
    }

    /// All services of one kind, in name order.
    pub fn discover_kind(&self, kind: ServiceKind) -> Vec<&ServiceDescriptor> {
        self.services.values().filter(|d| d.kind == kind).collect()
    }

    /// All services whose name starts with `prefix`, in name order.
    pub fn discover_prefix(&self, prefix: &str) -> Vec<&ServiceDescriptor> {
        self.services
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .collect()
    }

    /// Iterates all descriptors in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ServiceDescriptor> {
        self.services.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(name: &str, kind: ServiceKind) -> ServiceDescriptor {
        ServiceDescriptor {
            name: name.into(),
            kind,
            endpoint: format!("bus://{name}"),
            owner: Principal::new("system"),
        }
    }

    #[test]
    fn advertise_lookup_withdraw() {
        let mut r = ServiceRegistry::new();
        assert!(r.iter().next().is_none());
        r.advertise(desc("loc", ServiceKind::Location));
        assert_eq!(r.iter().count(), 1);
        assert_eq!(r.lookup("loc").unwrap().kind, ServiceKind::Location);
        let gone = r.withdraw("loc").unwrap();
        assert_eq!(gone.name, "loc");
        assert!(r.lookup("loc").is_none());
    }

    #[test]
    fn re_advertise_replaces_and_returns_old() {
        let mut r = ServiceRegistry::new();
        r.advertise(desc("svc", ServiceKind::Filtering));
        let old = r.advertise(desc("svc", ServiceKind::Dispatching)).unwrap();
        assert_eq!(old.kind, ServiceKind::Filtering);
        assert_eq!(r.lookup("svc").unwrap().kind, ServiceKind::Dispatching);
        assert_eq!(r.iter().count(), 1);
    }

    #[test]
    fn discover_by_kind_is_name_ordered() {
        let mut r = ServiceRegistry::new();
        r.advertise(desc("b-consumer", ServiceKind::Consumer));
        r.advertise(desc("a-consumer", ServiceKind::Consumer));
        r.advertise(desc("orphanage", ServiceKind::Orphanage));
        let consumers = r.discover_kind(ServiceKind::Consumer);
        let names: Vec<&str> = consumers.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["a-consumer", "b-consumer"]);
    }

    #[test]
    fn discover_by_prefix() {
        let mut r = ServiceRegistry::new();
        r.advertise(desc("rx-array-north", ServiceKind::Filtering));
        r.advertise(desc("rx-array-south", ServiceKind::Filtering));
        r.advertise(desc("tx-array", ServiceKind::Replicator));
        assert_eq!(r.discover_prefix("rx-").len(), 2);
        assert_eq!(r.discover_prefix("tx-").len(), 1);
        assert!(r.discover_prefix("zz").is_empty());
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut r = ServiceRegistry::new();
        for name in ["z", "m", "a"] {
            r.advertise(desc(name, ServiceKind::Consumer));
        }
        let names: Vec<&str> = r.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }
}
