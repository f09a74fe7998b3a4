//! The Router Manager (§3).
//!
//! "The 'Router Manager' holds the router configuration and starts,
//! configures, and stops protocols and other router functionality.  It
//! hides the router's internal structure from the user, providing
//! operators with unified management interfaces."
//!
//! Five pieces:
//!
//! * a hierarchical, curly-brace **configuration language** ([`parse`]) in
//!   the XORP style;
//! * **template** validation ([`Template`]) — the mechanism §8.3 says the
//!   CLI is dynamically extended with (and whose original syntax the
//!   authors "got wrong"; ours is deliberately minimal);
//! * a **process registry** ([`RouterManager`]) mapping top-level config
//!   sections to managed components, computing configuration diffs and
//!   driving start/reconfigure/stop in dependency order, transactionally;
//! * a **supervisor** ([`Supervisor`]) — liveness probing, crash
//!   classification, dependency-ordered restart with exponential backoff,
//!   a restart budget and a circuit-breaker `Degraded` state;
//! * a **flight recorder** ([`FlightReport`]) — on crash classification,
//!   a post-mortem snapshot of the dead component's last trace spans and
//!   metrics out of the shared registries.

pub mod config;
pub mod flight;
pub mod manager;
pub mod supervisor;
pub mod template;

pub use config::{parse, ConfigError, ConfigNode, ConfigValue};
pub use flight::FlightReport;
pub use manager::{dependency_rank, CommitError, ManagedProcess, ProcessState, RouterManager};
pub use supervisor::{SupervisedState, Supervisor, SupervisorConfig, SupervisorVerdict};
pub use template::{Template, TemplateError, ValueType};
