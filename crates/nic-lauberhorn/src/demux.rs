//! Service demultiplexing tables.
//!
//! The OS registers each service with the NIC "in advance" (§5.1):
//! its process, its methods' code/data pointers and argument
//! signatures, and the endpoints dispatching into it. This is the state
//! that lets the NIC execute steps 3, 6, 10 and 11 of §2 in hardware.

use std::collections::{HashMap, HashSet};

use lauberhorn_os::ProcessId;
use lauberhorn_packet::marshal::Signature;
use lauberhorn_sim::IdBuildHasher;

use crate::endpoint::EndpointId;

/// A method the NIC can dispatch: where to jump and how to decode.
#[derive(Debug, Clone)]
pub struct MethodEntry {
    /// Virtual address of the handler's first instruction.
    pub code_ptr: u64,
    /// Per-method data pointer handed to the handler.
    pub data_ptr: u64,
    /// Wire-format signature for the deserialization offload.
    pub signature: Signature,
}

/// One registered service.
#[derive(Debug, Clone)]
pub struct ServiceEntry {
    /// Owning process.
    pub process: ProcessId,
    /// Methods, indexed by method id.
    pub methods: Vec<MethodEntry>,
    /// Endpoints dispatching into this service.
    pub endpoints: Vec<EndpointId>,
}

/// Demux errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemuxError {
    /// No such service registered.
    UnknownService(u16),
    /// Service exists but has no such method.
    UnknownMethod {
        /// The service.
        service: u16,
        /// The missing method.
        method: u16,
    },
}

impl std::fmt::Display for DemuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DemuxError::UnknownService(s) => write!(f, "unknown service {s}"),
            DemuxError::UnknownMethod { service, method } => {
                write!(f, "service {service} has no method {method}")
            }
        }
    }
}

impl std::error::Error for DemuxError {}

/// The demultiplexing table.
///
/// Table SRAM is ECC-protected: an uncorrectable upset (modelled by
/// [`DemuxTable::corrupt_service`]) makes the entry *fail-stop* — every
/// lookup reports `UnknownService` until the kernel reprograms it —
/// rather than silently dispatching through a flipped pointer.
#[derive(Debug, Default)]
pub struct DemuxTable {
    services: HashMap<u16, ServiceEntry, IdBuildHasher>,
    /// Entries whose ECC check currently fails.
    faulted: HashSet<u16, IdBuildHasher>,
}

impl DemuxTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a service. Reprogramming an entry also
    /// rewrites its SRAM words, clearing any pending ECC fault.
    pub fn register_service(&mut self, service_id: u16, process: ProcessId) {
        self.faulted.remove(&service_id);
        self.services.insert(
            service_id,
            ServiceEntry {
                process,
                methods: Vec::new(),
                endpoints: Vec::new(),
            },
        );
    }

    /// Adds a method to a service; method ids are assigned densely in
    /// registration order and returned.
    pub fn register_method(
        &mut self,
        service_id: u16,
        code_ptr: u64,
        data_ptr: u64,
        signature: Signature,
    ) -> Result<u16, DemuxError> {
        let e = self
            .services
            .get_mut(&service_id)
            .ok_or(DemuxError::UnknownService(service_id))?;
        e.methods.push(MethodEntry {
            code_ptr,
            data_ptr,
            signature,
        });
        Ok((e.methods.len() - 1) as u16)
    }

    /// Attaches an endpoint to a service.
    pub fn add_endpoint(&mut self, service_id: u16, ep: EndpointId) -> Result<(), DemuxError> {
        let e = self
            .services
            .get_mut(&service_id)
            .ok_or(DemuxError::UnknownService(service_id))?;
        if !e.endpoints.contains(&ep) {
            e.endpoints.push(ep);
        }
        Ok(())
    }

    /// Detaches an endpoint (service teardown / migration).
    pub fn remove_endpoint(&mut self, service_id: u16, ep: EndpointId) {
        if let Some(e) = self.services.get_mut(&service_id) {
            e.endpoints.retain(|x| *x != ep);
        }
    }

    /// Looks up a service. An ECC-faulted entry is indistinguishable
    /// from an unregistered one: fail-stop, never fail-corrupt.
    pub fn service(&self, service_id: u16) -> Result<&ServiceEntry, DemuxError> {
        if self.faulted.contains(&service_id) {
            return Err(DemuxError::UnknownService(service_id));
        }
        self.services
            .get(&service_id)
            .ok_or(DemuxError::UnknownService(service_id))
    }

    /// Looks up a method.
    pub fn method(&self, service_id: u16, method_id: u16) -> Result<&MethodEntry, DemuxError> {
        let e = self.service(service_id)?;
        e.methods
            .get(method_id as usize)
            .ok_or(DemuxError::UnknownMethod {
                service: service_id,
                method: method_id,
            })
    }

    /// Registered service ids.
    pub fn service_ids(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.services.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Injects an SEU into a service entry: the ECC check fails and
    /// the entry goes fail-stop. Returns false for unknown services.
    pub fn corrupt_service(&mut self, service_id: u16) -> bool {
        if !self.services.contains_key(&service_id) {
            return false;
        }
        self.faulted.insert(service_id);
        true
    }

    /// Services whose ECC check currently fails (the watchdog's probe
    /// surface), sorted for determinism.
    pub fn corrupted_services(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.faulted.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lauberhorn_packet::marshal::ArgType;

    #[test]
    fn register_and_lookup() {
        let mut t = DemuxTable::new();
        t.register_service(1, ProcessId(10));
        let m0 = t
            .register_method(1, 0x1000, 0x2000, Signature::of(&[ArgType::U64]))
            .unwrap();
        let m1 = t
            .register_method(1, 0x1100, 0x2000, Signature::of(&[ArgType::Str]))
            .unwrap();
        assert_eq!((m0, m1), (0, 1));
        assert_eq!(t.method(1, 0).unwrap().code_ptr, 0x1000);
        assert_eq!(t.method(1, 1).unwrap().code_ptr, 0x1100);
        assert_eq!(t.service(1).unwrap().process, ProcessId(10));
    }

    #[test]
    fn unknown_lookups_error() {
        let mut t = DemuxTable::new();
        assert_eq!(t.service(5).err(), Some(DemuxError::UnknownService(5)));
        t.register_service(5, ProcessId(1));
        assert_eq!(
            t.method(5, 3).err(),
            Some(DemuxError::UnknownMethod {
                service: 5,
                method: 3
            })
        );
        assert_eq!(
            t.register_method(9, 0, 0, Signature::default()).err(),
            Some(DemuxError::UnknownService(9))
        );
    }

    #[test]
    fn endpoints_attach_and_detach() {
        let mut t = DemuxTable::new();
        t.register_service(2, ProcessId(1));
        t.add_endpoint(2, EndpointId(4)).unwrap();
        t.add_endpoint(2, EndpointId(4)).unwrap(); // Idempotent.
        t.add_endpoint(2, EndpointId(5)).unwrap();
        assert_eq!(
            t.service(2).unwrap().endpoints,
            vec![EndpointId(4), EndpointId(5)]
        );
        t.remove_endpoint(2, EndpointId(4));
        assert_eq!(t.service(2).unwrap().endpoints, vec![EndpointId(5)]);
    }

    #[test]
    fn corrupted_entry_is_fail_stop_until_reprogrammed() {
        let mut t = DemuxTable::new();
        t.register_service(1, ProcessId(10));
        t.register_method(1, 0x1000, 0x2000, Signature::of(&[ArgType::U64]))
            .unwrap();
        assert!(t.corrupt_service(1));
        assert!(!t.corrupt_service(99)); // Unknown: nothing to corrupt.
                                         // Both lookup paths fail-stop with UnknownService, never a
                                         // partially-corrupt entry.
        assert_eq!(t.service(1).err(), Some(DemuxError::UnknownService(1)));
        assert_eq!(t.method(1, 0).err(), Some(DemuxError::UnknownService(1)));
        assert_eq!(t.corrupted_services(), vec![1]);
        // Reprogramming the entry rewrites the SRAM and clears the
        // fault.
        t.register_service(1, ProcessId(10));
        t.register_method(1, 0x1000, 0x2000, Signature::of(&[ArgType::U64]))
            .unwrap();
        assert!(t.corrupted_services().is_empty());
        assert_eq!(t.method(1, 0).unwrap().code_ptr, 0x1000);
    }

    #[test]
    fn service_ids_sorted() {
        let mut t = DemuxTable::new();
        t.register_service(7, ProcessId(1));
        t.register_service(3, ProcessId(2));
        assert_eq!(t.service_ids(), vec![3, 7]);
    }
}
