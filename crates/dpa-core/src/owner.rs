//! Owner-side request service shared by every node driver.
//!
//! Whichever scheme the *requesting* node runs, the owner's job is the
//! same: look up each requested object and stream it back, segmenting the
//! reply at the MTU so large batches pay honest per-packet costs. A single
//! object larger than the MTU cannot be split across [`DpaMsg::Reply`]
//! entries, so it travels as its own message and the owner is explicitly
//! charged for every extra packet it occupies ([`charge_extra_packets`]).
//!
//! The DPA driver additionally runs a reply-path *scheduler*
//! (`proc_dpa`'s `enqueue_replies`) that buffers reply entries per
//! destination instead of answering immediately; it shares
//! [`charge_lookups`] and [`charge_extra_packets`] with the immediate path
//! below so both charge identically per object and per packet. Replica
//! broadcasts (`proc_dpa::replicate`) are sized and charged through
//! [`reply_payload_bytes`] and [`charge_extra_packets`] too.

use crate::config::DpaConfig;
use crate::msg::{DpaMsg, Payloads};
use crate::work::PtrApp;
use fastmsg::packets_for;
use global_heap::GPtr;
use sim_net::{Ctx, NodeId};

/// What one request-service call put on the wire.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReplyAccounting {
    /// Reply messages sent.
    pub msgs: u64,
    /// Reply entries (objects) sent.
    pub entries: u64,
}

/// Charge the overhead of the extra packets a `payload`-byte message
/// occupies beyond the first: `Ctx::send` charges one send overhead plus
/// per-byte gap for one header, so a k-packet message owes `(k-1)` more of
/// each. Zero for any payload within the MTU — applied uniformly so every
/// reply path pays the same honest per-packet cost.
pub(crate) fn charge_extra_packets(cfg: &DpaConfig, ctx: &mut Ctx<'_, DpaMsg>, payload: u32) {
    let packets = packets_for(payload, cfg.mtu) as u64;
    if packets > 1 {
        let net = ctx.net();
        let per_packet = net.send_overhead_ns + net.gap_ns_per_byte * net.header_bytes as u64;
        ctx.charge_overhead((packets - 1) * per_packet);
    }
}

/// Charge the per-object lookup of every pointer of a request, all of it
/// before the first reply entry is pushed or sent; the caller then sizes
/// each entry ([`PtrApp::object_size`]) as it places it, so no list of
/// entries is built in between.
///
/// A node serves only the objects it was born with; the drivers refuse
/// every other request entry before it reaches this point.
pub(crate) fn charge_lookups(cfg: &DpaConfig, ctx: &mut Ctx<'_, DpaMsg>, ptrs: &[GPtr]) {
    for &p in ptrs {
        debug_assert!(
            p.is_local_to(ctx.me().0),
            "request for non-owned object {p}"
        );
        ctx.charge_overhead(cfg.cost.owner_lookup_ns);
    }
}

/// Payload bytes a reply batch occupies on the wire.
pub(crate) fn reply_payload_bytes(batch: &[(GPtr, u32)]) -> u32 {
    batch.iter().map(|&(_, size)| size + GPtr::WIRE_BYTES).sum()
}

/// Send one reply batch to `dst`, charging for every packet it spans.
pub(crate) fn send_reply_batch(
    cfg: &DpaConfig,
    ctx: &mut Ctx<'_, DpaMsg>,
    dst: NodeId,
    batch: Vec<(GPtr, u32)>,
) {
    debug_assert!(!batch.is_empty());
    charge_extra_packets(cfg, ctx, reply_payload_bytes(&batch));
    ctx.send(dst, DpaMsg::Reply(batch));
}

/// Service one incoming request batch immediately: charge per-object
/// lookup, then send one or more MTU-bounded replies to `src` (an entry
/// that alone exceeds the MTU becomes its own multi-packet message), each
/// in a buffer from the machine's [`Payloads`]. Returns what went on the
/// wire.
pub(crate) fn service_request<A: PtrApp>(
    app: &A,
    cfg: &DpaConfig,
    ctx: &mut Ctx<'_, DpaMsg>,
    src: NodeId,
    ptrs: &[GPtr],
) -> ReplyAccounting {
    let mtu = cfg.mtu.0;
    let mut acct = ReplyAccounting::default();
    charge_lookups(cfg, ctx, ptrs);
    let mut chunk = Payloads::of(ctx).replies.take_for(ptrs.len());
    let mut chunk_bytes = 0u32;
    for (placed, &p) in ptrs.iter().enumerate() {
        let size = app.object_size(p);
        let entry = size + GPtr::WIRE_BYTES;
        if !chunk.is_empty() && chunk_bytes + entry > mtu {
            acct.msgs += 1;
            acct.entries += chunk.len() as u64;
            let rest = Payloads::of(ctx).replies.take_for(ptrs.len() - placed);
            let full = std::mem::replace(&mut chunk, rest);
            send_reply_batch(cfg, ctx, src, full);
            chunk_bytes = 0;
        }
        chunk_bytes += entry;
        chunk.push((p, size));
    }
    if !chunk.is_empty() {
        acct.msgs += 1;
        acct.entries += chunk.len() as u64;
        send_reply_batch(cfg, ctx, src, chunk);
    }
    acct
}
