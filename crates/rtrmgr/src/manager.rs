//! Component lifecycle: starting, reconfiguring and stopping managed
//! processes from configuration changes.
//!
//! Commits are **dependency-ordered** (infrastructure before the RIB
//! before routing protocols, §3.1) and **transactional**: if a section
//! fails to apply, every change this commit already made is rolled back
//! in reverse order, so the running configuration is never half-applied.

use std::collections::BTreeMap;
use std::fmt;

use crate::config::ConfigNode;
use crate::template::{Template, TemplateError};

/// Start-order rank (§3.1): the FEA and interface configuration come up
/// first, then the RIB that plugs into them, then the routing protocols
/// that register with the RIB.  Shutdown and rollback run in reverse.
pub fn dependency_rank(name: &str) -> u32 {
    match name {
        "interfaces" | "fea" | "firewall" => 0,
        "rib" => 1,
        _ => 2,
    }
}

/// A managed router component (a "process" in the paper's architecture).
///
/// The Router Manager drives each implementation through its lifecycle as
/// configuration commits come and go; implementations translate their
/// config subtree into XRLs/API calls on the real component.
pub trait ManagedProcess {
    /// Component name (matches its top-level config section).
    fn name(&self) -> &str;

    /// Bring the component up with its initial configuration.
    fn start(&mut self, config: &ConfigNode) -> Result<(), String>;

    /// Apply a configuration change while running.
    fn reconfigure(&mut self, config: &ConfigNode) -> Result<(), String>;

    /// Shut the component down (its section disappeared).
    fn stop(&mut self);
}

/// Lifecycle states the manager tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Not running (no config section).
    Stopped,
    /// Running.
    Running,
    /// Last transition failed.
    Failed,
}

/// Why a commit failed.
#[derive(Debug)]
pub enum CommitError {
    /// Template validation rejected the configuration; nothing was
    /// touched.
    Validation(Vec<TemplateError>),
    /// A section failed to apply.  Changes this commit had already made
    /// were rolled back (in reverse order); `rolled_back` lists them.
    /// The failed component is left [`ProcessState::Failed`] with its
    /// previous `applied` config intact, so re-committing the same
    /// configuration retries it.
    Apply {
        failed: String,
        error: String,
        rolled_back: Vec<String>,
    },
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Validation(errors) => {
                write!(f, "configuration rejected ({} error(s))", errors.len())
            }
            CommitError::Apply {
                failed,
                error,
                rolled_back,
            } => write!(
                f,
                "{failed} failed to apply: {error} (rolled back: {rolled_back:?})"
            ),
        }
    }
}

impl std::error::Error for CommitError {}

/// One planned (and possibly applied) change, kept so it can be undone.
enum Change {
    Start(ConfigNode),
    Reconfigure { new: ConfigNode, prev: ConfigNode },
    Stop(ConfigNode),
}

struct Managed {
    process: Box<dyn ManagedProcess>,
    state: ProcessState,
    /// The subtree last applied.
    applied: Option<ConfigNode>,
}

/// The Router Manager: owns the running configuration and the component
/// registry.
#[derive(Default)]
pub struct RouterManager {
    template: Option<Template>,
    processes: BTreeMap<String, Managed>,
    running: Option<ConfigNode>,
}

impl RouterManager {
    /// A manager with no schema enforcement.
    pub fn new() -> RouterManager {
        RouterManager::default()
    }

    /// Enforce a template on every commit.
    pub fn set_template(&mut self, t: Template) {
        self.template = Some(t);
    }

    /// Register a component under the config section `protocols.<name>` or
    /// the top-level section `<name>`.
    pub fn register(&mut self, process: Box<dyn ManagedProcess>) {
        let name = process.name().to_string();
        self.processes.insert(
            name,
            Managed {
                process,
                state: ProcessState::Stopped,
                applied: None,
            },
        );
    }

    /// Current state of a component.
    pub fn state(&self, name: &str) -> Option<ProcessState> {
        self.processes.get(name).map(|m| m.state)
    }

    /// The currently committed configuration.
    pub fn running_config(&self) -> Option<&ConfigNode> {
        self.running.as_ref()
    }

    /// Registered component names in dependency order.
    fn dependency_order(&self) -> Vec<String> {
        let mut names: Vec<String> = self.processes.keys().cloned().collect();
        names.sort_by_key(|n| (dependency_rank(n), n.clone()));
        names
    }

    /// Find the subtree a component consumes: `protocols.<name>`, falling
    /// back to a top-level `<name>` section.
    fn section_for<'a>(root: &'a ConfigNode, name: &str) -> Option<&'a ConfigNode> {
        root.child("protocols")
            .and_then(|p| p.child(name))
            .or_else(|| root.child(name))
    }

    /// Commit a new configuration: validate, then start / reconfigure /
    /// stop components whose sections appeared / changed / vanished, in
    /// dependency order.  On failure, already-applied changes are rolled
    /// back in reverse and the running config is unchanged.
    ///
    /// Returns the names of components touched, in order.
    pub fn commit(&mut self, root: ConfigNode) -> Result<Vec<String>, CommitError> {
        if let Some(t) = &self.template {
            let errors = t.validate(&root);
            if !errors.is_empty() {
                return Err(CommitError::Validation(errors));
            }
        }

        // Plan first (no side effects), in dependency order.
        let mut plan: Vec<(String, Change)> = Vec::new();
        for name in self.dependency_order() {
            let managed = &self.processes[&name];
            let section = Self::section_for(&root, &name).cloned();
            match (&managed.applied, section) {
                (None, Some(section)) => plan.push((name, Change::Start(section))),
                (Some(prev), Some(section)) if *prev != section => plan.push((
                    name,
                    Change::Reconfigure {
                        new: section,
                        prev: prev.clone(),
                    },
                )),
                (Some(prev), None) => plan.push((name, Change::Stop(prev.clone()))),
                _ => {}
            }
        }

        // Apply; on the first failure, undo what this commit did.
        let mut done: Vec<(String, Change)> = Vec::new();
        for (name, change) in plan {
            let managed = self.processes.get_mut(&name).expect("planned component");
            let result = match &change {
                Change::Start(section) => managed.process.start(section).map(|()| {
                    managed.state = ProcessState::Running;
                    managed.applied = Some(section.clone());
                }),
                Change::Reconfigure { new, .. } => managed.process.reconfigure(new).map(|()| {
                    managed.state = ProcessState::Running;
                    managed.applied = Some(new.clone());
                }),
                Change::Stop(_) => {
                    managed.process.stop();
                    managed.state = ProcessState::Stopped;
                    managed.applied = None;
                    Ok(())
                }
            };
            match result {
                Ok(()) => done.push((name, change)),
                Err(error) => {
                    // The failed component keeps its previous `applied`
                    // (never record a config that did not take), so an
                    // identical re-commit retries it.
                    managed.state = ProcessState::Failed;
                    let rolled_back = self.rollback(done);
                    return Err(CommitError::Apply {
                        failed: name,
                        error,
                        rolled_back,
                    });
                }
            }
        }

        self.running = Some(root);
        Ok(done.into_iter().map(|(name, _)| name).collect())
    }

    /// Undo this commit's applied changes, newest first.
    fn rollback(&mut self, done: Vec<(String, Change)>) -> Vec<String> {
        let mut names = Vec::new();
        for (name, change) in done.into_iter().rev() {
            let managed = self.processes.get_mut(&name).expect("applied component");
            match change {
                Change::Start(_) => {
                    managed.process.stop();
                    managed.state = ProcessState::Stopped;
                    managed.applied = None;
                }
                Change::Reconfigure { prev, .. } => {
                    managed.state = match managed.process.reconfigure(&prev) {
                        Ok(()) => ProcessState::Running,
                        Err(_) => ProcessState::Failed,
                    };
                    managed.applied = Some(prev);
                }
                Change::Stop(prev) => match managed.process.start(&prev) {
                    Ok(()) => {
                        managed.state = ProcessState::Running;
                        managed.applied = Some(prev);
                    }
                    Err(_) => {
                        managed.state = ProcessState::Failed;
                        managed.applied = None;
                    }
                },
            }
            names.push(name);
        }
        names
    }

    /// Stop everything (router shutdown), protocols first and
    /// infrastructure last — the reverse of start order.  Anything not
    /// already `Stopped` is stopped, including `Failed` components that
    /// may hold half-running state.
    pub fn shutdown(&mut self) {
        for name in self.dependency_order().into_iter().rev() {
            let managed = self.processes.get_mut(&name).expect("registered component");
            if managed.state != ProcessState::Stopped {
                managed.process.stop();
                managed.state = ProcessState::Stopped;
                managed.applied = None;
            }
        }
        self.running = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse;
    use crate::template::standard_template;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[derive(Default)]
    struct LogState {
        events: Vec<String>,
    }

    struct FakeProcess {
        name: &'static str,
        log: Rc<RefCell<LogState>>,
        /// How many of the next `start` calls fail.
        fail_starts: Cell<u32>,
        /// How many of the next `reconfigure` calls fail.
        fail_reconfigures: Cell<u32>,
    }

    impl FakeProcess {
        fn new(name: &'static str, log: Rc<RefCell<LogState>>) -> FakeProcess {
            FakeProcess {
                name,
                log,
                fail_starts: Cell::new(0),
                fail_reconfigures: Cell::new(0),
            }
        }
    }

    impl ManagedProcess for FakeProcess {
        fn name(&self) -> &str {
            self.name
        }
        fn start(&mut self, config: &ConfigNode) -> Result<(), String> {
            self.log.borrow_mut().events.push(format!(
                "start {} ({} attrs)",
                self.name,
                config.attrs.len()
            ));
            if self.fail_starts.get() > 0 {
                self.fail_starts.set(self.fail_starts.get() - 1);
                Err("boom".into())
            } else {
                Ok(())
            }
        }
        fn reconfigure(&mut self, _config: &ConfigNode) -> Result<(), String> {
            self.log
                .borrow_mut()
                .events
                .push(format!("reconfigure {}", self.name));
            if self.fail_reconfigures.get() > 0 {
                self.fail_reconfigures.set(self.fail_reconfigures.get() - 1);
                Err("boom".into())
            } else {
                Ok(())
            }
        }
        fn stop(&mut self) {
            self.log
                .borrow_mut()
                .events
                .push(format!("stop {}", self.name));
        }
    }

    fn manager_with(names: &[&'static str]) -> (RouterManager, Rc<RefCell<LogState>>) {
        let log = Rc::new(RefCell::new(LogState::default()));
        let mut mgr = RouterManager::new();
        for name in names {
            mgr.register(Box::new(FakeProcess::new(name, log.clone())));
        }
        (mgr, log)
    }

    const BGP_RIP: &str = r#"
protocols {
    bgp { local-as: 65000
          router-id: 10.0.0.1 }
    rip { }
}
"#;

    #[test]
    fn start_reconfigure_stop_cycle() {
        let (mut mgr, log) = manager_with(&["bgp", "rip"]);
        // Commit 1: both start.
        let touched = mgr.commit(parse(BGP_RIP).unwrap()).unwrap();
        assert_eq!(touched, vec!["bgp", "rip"]);
        assert_eq!(mgr.state("bgp"), Some(ProcessState::Running));

        // Commit 2: bgp changes, rip unchanged.
        let changed = BGP_RIP.replace("65000", "65001");
        let touched = mgr.commit(parse(&changed).unwrap()).unwrap();
        assert_eq!(touched, vec!["bgp"]);

        // Commit 3: rip section removed.
        let no_rip = r#"protocols { bgp { local-as: 65001
                                          router-id: 10.0.0.1 } }"#;
        let touched = mgr.commit(parse(no_rip).unwrap()).unwrap();
        assert_eq!(touched, vec!["rip"]);
        assert_eq!(mgr.state("rip"), Some(ProcessState::Stopped));

        let events = &log.borrow().events;
        assert_eq!(
            events,
            &vec![
                "start bgp (2 attrs)".to_string(),
                "start rip (0 attrs)".to_string(),
                "reconfigure bgp".to_string(),
                "stop rip".to_string(),
            ]
        );
    }

    #[test]
    fn identical_commit_touches_nothing() {
        let (mut mgr, _log) = manager_with(&["bgp", "rip"]);
        mgr.commit(parse(BGP_RIP).unwrap()).unwrap();
        let touched = mgr.commit(parse(BGP_RIP).unwrap()).unwrap();
        assert!(touched.is_empty());
    }

    #[test]
    fn template_rejects_bad_commit_without_side_effects() {
        let (mut mgr, log) = manager_with(&["bgp"]);
        mgr.set_template(standard_template());
        // Missing required router-id.
        let err = mgr
            .commit(parse("protocols { bgp { local-as: 1 } }").unwrap())
            .unwrap_err();
        match err {
            CommitError::Validation(errors) => assert!(!errors.is_empty()),
            other => panic!("expected a validation error, got {other}"),
        }
        assert!(log.borrow().events.is_empty());
        assert_eq!(mgr.state("bgp"), Some(ProcessState::Stopped));
        assert!(mgr.running_config().is_none());
    }

    /// Full config with all four ranks of components: commits start
    /// infrastructure before the RIB before the protocols, and shutdown
    /// runs in exactly the reverse order.
    #[test]
    fn dependency_ordered_start_and_reverse_shutdown() {
        let (mut mgr, log) = manager_with(&["bgp", "rip", "rib", "interfaces"]);
        let full = r#"
interfaces { interface eth0 { address: 10.0.0.1
                              prefix: 10.0.0.0/24 } }
rib { }
protocols {
    bgp { local-as: 65000
          router-id: 10.0.0.1 }
    rip { }
}
"#;
        let touched = mgr.commit(parse(full).unwrap()).unwrap();
        assert_eq!(touched, vec!["interfaces", "rib", "bgp", "rip"]);

        mgr.shutdown();
        let events = &log.borrow().events;
        let stops: Vec<&String> = events.iter().filter(|e| e.starts_with("stop")).collect();
        assert_eq!(
            stops,
            ["stop rip", "stop bgp", "stop rib", "stop interfaces"]
        );
        assert!(mgr.running_config().is_none());
    }

    #[test]
    fn failed_start_reported_and_retryable() {
        let log = Rc::new(RefCell::new(LogState::default()));
        let mut mgr = RouterManager::new();
        let bgp = FakeProcess::new("bgp", log.clone());
        bgp.fail_starts.set(1);
        mgr.register(Box::new(bgp));

        let err = mgr.commit(parse(BGP_RIP).unwrap()).unwrap_err();
        match err {
            CommitError::Apply { failed, .. } => assert_eq!(failed, "bgp"),
            other => panic!("expected an apply error, got {other}"),
        }
        assert_eq!(mgr.state("bgp"), Some(ProcessState::Failed));
        // The failed config was NOT recorded as applied, so committing the
        // exact same configuration again retries the start.
        let touched = mgr.commit(parse(BGP_RIP).unwrap()).unwrap();
        assert_eq!(touched, vec!["bgp"]);
        assert_eq!(mgr.state("bgp"), Some(ProcessState::Running));
    }

    /// A later section failing rolls back the earlier sections this commit
    /// already applied — the running config is never half-new.
    #[test]
    fn failed_section_rolls_back_earlier_changes() {
        let log = Rc::new(RefCell::new(LogState::default()));
        let mut mgr = RouterManager::new();
        mgr.register(Box::new(FakeProcess::new("rib", log.clone())));
        let bgp = FakeProcess::new("bgp", log.clone());
        bgp.fail_starts.set(1);
        mgr.register(Box::new(bgp));

        let full = r#"
rib { }
protocols { bgp { local-as: 65000
                  router-id: 10.0.0.1 } }
"#;
        let err = mgr.commit(parse(full).unwrap()).unwrap_err();
        match err {
            CommitError::Apply {
                failed,
                rolled_back,
                ..
            } => {
                assert_eq!(failed, "bgp");
                assert_eq!(rolled_back, vec!["rib"]);
            }
            other => panic!("expected an apply error, got {other}"),
        }
        // rib was started (before bgp, by rank) then stopped again.
        let events = &log.borrow().events;
        assert_eq!(
            events,
            &vec![
                "start rib (0 attrs)".to_string(),
                "start bgp (2 attrs)".to_string(),
                "stop rib".to_string(),
            ]
        );
        assert_eq!(mgr.state("rib"), Some(ProcessState::Stopped));
        assert_eq!(mgr.state("bgp"), Some(ProcessState::Failed));
        assert!(mgr.running_config().is_none());
    }

    /// A failed reconfigure is rolled back to the previous section on the
    /// *other* components; the failed one keeps its old applied config.
    #[test]
    fn failed_reconfigure_restores_previous_config() {
        let log2 = Rc::new(RefCell::new(LogState::default()));
        let mut mgr2 = RouterManager::new();
        mgr2.register(Box::new(FakeProcess::new("bgp", log2.clone())));
        let rip = FakeProcess::new("rip", log2.clone());
        rip.fail_reconfigures.set(1);
        mgr2.register(Box::new(rip));
        mgr2.commit(parse(BGP_RIP).unwrap()).unwrap();

        let changed = BGP_RIP
            .replace("65000", "65001")
            .replace("rip { }", "rip { metric: 2 }");
        let err = mgr2.commit(parse(&changed).unwrap()).unwrap_err();
        match err {
            CommitError::Apply {
                failed,
                rolled_back,
                ..
            } => {
                assert_eq!(failed, "rip");
                assert_eq!(rolled_back, vec!["bgp"]);
            }
            other => panic!("expected an apply error, got {other}"),
        }
        // bgp was re-reconfigured back to its previous section; the
        // running config is still the original commit's.
        assert_eq!(mgr2.state("bgp"), Some(ProcessState::Running));
        assert_eq!(mgr2.state("rip"), Some(ProcessState::Failed));
        assert_eq!(
            mgr2.running_config().unwrap(),
            &parse(BGP_RIP).unwrap(),
            "a failed commit must not replace the running config"
        );
        // And the same changed config can be retried: both diffs re-run.
        let touched = mgr2.commit(parse(&changed).unwrap()).unwrap();
        assert_eq!(touched, vec!["bgp", "rip"]);
    }

    /// Satellite fix: shutdown must stop Failed components too — a failed
    /// reconfigure leaves a live process behind the Failed state.
    #[test]
    fn shutdown_stops_failed_components() {
        let log = Rc::new(RefCell::new(LogState::default()));
        let mut mgr = RouterManager::new();
        let bgp = FakeProcess::new("bgp", log.clone());
        bgp.fail_reconfigures.set(2); // the reconfigure AND its rollback fail
        mgr.register(Box::new(bgp));
        mgr.commit(parse(BGP_RIP).unwrap()).unwrap();
        let changed = BGP_RIP.replace("65000", "65001");
        assert!(mgr.commit(parse(&changed).unwrap()).is_err());
        assert_eq!(mgr.state("bgp"), Some(ProcessState::Failed));

        log.borrow_mut().events.clear();
        mgr.shutdown();
        assert_eq!(mgr.state("bgp"), Some(ProcessState::Stopped));
        assert!(
            log.borrow().events.contains(&"stop bgp".to_string()),
            "Failed component never received stop()"
        );
    }

    #[test]
    fn shutdown_stops_running() {
        let (mut mgr, log) = manager_with(&["bgp", "rip"]);
        mgr.commit(parse(BGP_RIP).unwrap()).unwrap();
        mgr.shutdown();
        assert_eq!(mgr.state("bgp"), Some(ProcessState::Stopped));
        let events = &log.borrow().events;
        assert!(events.contains(&"stop bgp".to_string()));
        assert!(events.contains(&"stop rip".to_string()));
    }

    #[test]
    fn top_level_sections_also_matched() {
        let (mut mgr, log) = manager_with(&["interfaces"]);
        mgr.commit(
            parse("interfaces { interface eth0 { address: 10.0.0.1\n prefix: 10.0.0.0/24 } }")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(mgr.state("interfaces"), Some(ProcessState::Running));
        assert!(log.borrow().events[0].starts_with("start interfaces"));
    }
}
