//! Message-driven relaxed consistency — the CarlOS model (OSDI '94).
//!
//! This crate implements the paper's contribution: a DSM in which *every*
//! memory-consistency action is driven by user-level messages carrying
//! explicit causality annotations. There is no built-in synchronization;
//! locks, barriers, and work queues (crate `carlos-sync`) are ordinary
//! message protocols over this interface.
//!
//! The model, from §2:
//!
//! > If processor A sends a synchronizing message m to processor B, any
//! > modifications to shared memory visible on A before m was sent become
//! > visible to B when B receives m.
//!
//! Each user message carries one [`Annotation`]:
//!
//! - [`Annotation::Release`] — synchronizing: sending is a release event,
//!   accepting a matching acquire.
//! - [`Annotation::Request`] — non-synchronizing, but piggybacks the
//!   sender's vector timestamp so a precisely tailored RELEASE can answer.
//! - [`Annotation::None`] — non-synchronizing, no consistency interaction.
//! - [`Annotation::ReleaseNt`] — the non-transitive release: carries only
//!   intervals created at the sender, with the correct required timestamp
//!   so the receiver can detect and repair an inconsistent view.
//!
//! Messages are active messages (§4.3): a handler registered per message
//! type is invoked at delivery, may inspect the body, and must dispose of
//! the message by **accepting** it (performing the acquire), **forwarding**
//! it to another node with its encapsulated consistency information, or
//! **storing** it for deferred disposition (§2.2). Accepting is the acquire
//! alone: user level receives exactly the messages whose handler id has no
//! registered handler, which the default disposition accepts and delivers.
//!
//! [`Runtime`] ties the pieces together on each node: the LRC engine from
//! `carlos-lrc`, the reliable transport from `carlos-sim`, handler
//! dispatch, per-peer knowledge tracking for tailored RELEASE payloads,
//! and the system protocol (diff/page fetches, inadequate-consistency
//! repair, garbage-collection support).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotation;
pub mod config;
pub mod heap;
pub mod message;
pub mod runtime;

pub use annotation::Annotation;
pub use carlos_util::event::{CostPhase, FetchKind, GranuleClass, MsgClass};
pub use config::{CoreConfig, Strategy};
#[cfg(any(test, feature = "seeded-bugs"))]
pub use config::SeededBug;
pub use heap::CoherentHeap;
pub use message::{AcceptedMsg, Consistency, Message};
pub use runtime::{Env, Runtime, STALL_ROUNDS};
