#![warn(missing_docs)]

//! # B2BObjects middleware core
//!
//! The primary contribution of *"Distributed Object Middleware to Support
//! Dependable Information Sharing between Organisations"* (DSN 2002):
//! non-repudiable coordination of the state of object replicas shared
//! between mutually distrusting organisations.
//!
//! * [`Coordinator`] — the per-party protocol engine (`B2BCoordinator`):
//!   state coordination (§4.3), connection/disconnection (§4.5), evidence
//!   logging, checkpointing and crash recovery.
//! * [`B2BObject`] — the trait application objects implement (Figure 4);
//!   `b2b-apps` holds the generic implementations.
//! * [`controller`] — the programmer-facing `B2BObjectController`:
//!   `enter`/`examine`/`overwrite`/`update`/`leave` scoping and the
//!   synchronous, deferred-synchronous and asynchronous modes (§5).
//! * [`history`] — one party's log read as a history: what it installed,
//!   or the first record that does not fit.
//! * [`dispute`] — the offline arbiter consuming non-repudiation logs.
//!
//! # Quickstart
//!
//! ```
//! use b2b_apps::SharedCell;
//! use b2b_core::{Coordinator, ObjectId};
//! use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer};
//! use b2b_net::{NodeCtx, SimNet};
//! use b2b_crypto::TimeMs;
//!
//! // One organisation sharing a counter with itself (a singleton group):
//! let kp = KeyPair::generate_from_seed(1);
//! let mut ring = KeyRing::new();
//! ring.register(PartyId::new("org"), kp.public_key());
//! let mut coord = Coordinator::builder(PartyId::new("org"), kp)
//!     .ring(ring)
//!     .seed(7)
//!     .build();
//! coord
//!     .register_object(ObjectId::new("counter"), Box::new(|| Box::new(SharedCell::new(0u64))))
//!     .unwrap();
//!
//! let mut ctx = NodeCtx::new(TimeMs(0));
//! let run = coord
//!     .propose_overwrite(&ObjectId::new("counter"), b"1".to_vec(), &mut ctx)
//!     .unwrap();
//! assert!(coord.outcome_of(&run).unwrap().is_installed());
//! # drop(SimNet::<Coordinator>::new(0));
//! ```

pub mod config;
pub mod controller;
pub mod coordinator;
pub mod decision;
pub mod detect;
pub mod dispute;
pub mod error;
pub mod history;
pub mod ids;
pub mod messages;
pub mod object;
mod proto_member;
mod proto_state;
pub mod replica;
pub mod seq;
mod tally;
mod termination;

pub use config::{CoordinatorConfig, DecisionRule, MutationFlags, PENDING_UPDATES_MAX};
pub use controller::{Controller, CoordAccess, CoordTicket, SimAccess, TicketStatus};
pub use coordinator::{
    ConnectStatus, Coordinator, CoordinatorBuilder, ObjectFactory, TicketId, TicketState,
};
pub use decision::{CoordEvent, CoordEventKind, Decision, Outcome, Verdict};
pub use detect::Misbehaviour;
pub use dispute::{Arbiter, Claim, Ruling};
pub use error::CoordError;
pub use ids::{members_digest, GroupId, ObjectId, RunId, StateId};
pub use object::{fold_each, B2BObject, FoldStep};
pub use seq::SeqTable;
