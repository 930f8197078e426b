#![warn(missing_docs)]

//! Proof-of-concept applications for the B2BObjects middleware (paper §5
//! and the §2 scenarios).
//!
//! * [`tictactoe`] — the two-party turn-taking game of §5.1 (Figure 5),
//!   representative of symmetric-rule shared state.
//! * [`order`] — the order-processing application of §5.2 (Figure 7):
//!   asymmetric per-role validation, in two-party (customer/supplier) and
//!   four-party (plus approver and dispatcher) variants.
//! * [`auction`] — the distributed auction service of §2 scenario 3:
//!   auction houses jointly operating a regulated market place.
//! * [`oss`] — dispersal of operational support to the customer (§2
//!   scenario 2): shared service configuration with customer- and
//!   provider-controlled aspects.
//! * [`whiteboard`] — a shared whiteboard, the other turn-taking example
//!   class §5.1 mentions.
//! * [`ttp`] — trusted-third-party interposition (Figure 1b / Figure 6):
//!   playing through a TTP that validates moves before disclosure, and a
//!   bridge agent for indirect interaction.
//! * [`generic`] — [`SharedCell`], any JSON-encodable value with a typed
//!   validation rule, and [`CompositeObject`], several objects coordinated
//!   as one.

pub mod auction;
pub mod generic;
pub mod order;
pub mod oss;
pub mod tictactoe;
pub mod ttp;
pub mod whiteboard;

pub use auction::{Auction, AuctionObject, Bid};
pub use generic::{CompositeObject, SharedCell};
pub use order::{Order, OrderLine, OrderObject, OrderRoles, OrderUpdate};
pub use oss::{FaultTicket, OssObject, ServiceConfig};
pub use tictactoe::{Board, GameObject, Mark, MoveError, Players};
pub use ttp::{lenient_game_object, BridgeAgent};
pub use whiteboard::{Stroke, Whiteboard, WhiteboardObject};
