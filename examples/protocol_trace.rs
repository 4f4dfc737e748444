//! Low-level tour of the Figure 4 protocol: drive the NIC device model
//! and the coherence system directly, one message at a time, printing
//! the state transitions the paper describes.
//!
//! ```text
//! cargo run --example protocol_trace
//! ```

use lauberhorn::coherence::{CacheId, CoherentSystem, FabricModel, LineState, LoadResult};
use lauberhorn::experiments::fig4;
use lauberhorn::nic::{LauberhornNic, LauberhornNicConfig};
use lauberhorn::os::ProcessId;
use lauberhorn::packet::frame::EndpointAddr;
use lauberhorn::packet::marshal::{ArgType, Signature};

fn main() {
    // First, the guided tour: the full scripted Figure 4 exchange.
    let timeline = fig4::run();
    println!("{}", fig4::render(&timeline));

    // Then the raw ingredients, for readers building on the API: a
    // coherent domain with a device-homed range, and a load that the
    // device parks instead of answering.
    println!("-- raw protocol primitives --\n");
    let nic_cfg = LauberhornNicConfig::enzian(EndpointAddr::host(1, 9000));
    let base = nic_cfg.device_base;
    let mut coh = CoherentSystem::new(
        1,
        FabricModel::intra_socket(128),
        FabricModel::eci(),
        base,
        base + (1 << 20),
    );
    let mut nic = LauberhornNic::new(nic_cfg, 1);
    nic.demux_mut().register_service(1, ProcessId(1));
    nic.demux_mut()
        .register_method(1, 0xC0DE, 0xDA7A, Signature::of(&[ArgType::Bytes]))
        .expect("fresh service");
    let (_ep, layout) = nic.create_endpoint(ProcessId(1));

    let ctrl0 = layout.ctrl(0);
    println!(
        "endpoint CONTROL[0] at {ctrl0:?}, line size {} B",
        layout.line_size
    );
    match coh.load(CacheId(0), ctrl0).expect("valid cache") {
        LoadResult::Deferred {
            token,
            request_arrival,
        } => {
            println!(
                "core load DEFERRED: token {token:?}, request reaches NIC after {request_arrival}"
            );
            println!(
                "line state while parked: {:?} (the core is stalled, not spinning)",
                coh.state_of(CacheId(0), ctrl0)
            );
            assert_eq!(coh.state_of(CacheId(0), ctrl0), LineState::Invalid);
            let (_, _, lat) = coh
                .complete_fill(token, b"prepared dispatch line")
                .expect("fresh token");
            println!("device answered the fill after {lat}: core resumes with the data");
            println!(
                "line state after fill: {:?} (Exclusive: the core can write its response in place)",
                coh.state_of(CacheId(0), ctrl0)
            );
        }
        other => unreachable!("device-homed load must defer, got {other:?}"),
    }
}
