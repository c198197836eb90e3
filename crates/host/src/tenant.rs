//! The tenant directory: per-tenant sessions and leakage authorization.
//!
//! Every tenant of the appliance runs the §5 protocol against its **own**
//! secure-processor context (its own key register): the processor model
//! of `otc-core` holds exactly one run-once session key (§8), so sharing
//! a single register across tenants would silently clobber every earlier
//! tenant's session at each registration. The directory therefore
//! manufactures one [`SecureProcessor`] per tenant — the hardware analog
//! of per-tenant enclave contexts — all configured with the same leakage
//! limit `L`, and checks each tenant's proposed [`LeakageParams`] via
//! [`SecureProcessor::authorize`] *before* the scheduler will serve a
//! single slot.

use otc_core::{LeakageParams, SecureProcessor, SessionError, UserSession};
use otc_crypto::SplitMix64;

/// One registered tenant.
#[derive(Debug)]
pub struct TenantEntry {
    /// Dense tenant id (index into the directory).
    pub id: usize,
    /// Display name.
    pub name: String,
    /// The leakage parameters this tenant was authorized under.
    pub params: LeakageParams,
    /// Bits the parameters permit over the ORAM timing channel, as
    /// computed by the processor at authorization time.
    pub authorized_bits: u64,
    processor: SecureProcessor,
    session: UserSession,
}

impl TenantEntry {
    /// The tenant's established session (e.g. for encrypting its I/O).
    pub fn session(&self) -> &UserSession {
        &self.session
    }

    /// The tenant's processor context (holding its live session key).
    pub fn processor(&self) -> &SecureProcessor {
        &self.processor
    }
}

/// Directory of tenants served by one appliance.
#[derive(Debug)]
pub struct TenantDirectory {
    leakage_limit_bits: u64,
    rng: SplitMix64,
    entries: Vec<TenantEntry>,
}

impl TenantDirectory {
    /// Creates a directory whose per-tenant processors are manufactured
    /// with `leakage_limit_bits` as their limit `L`.
    pub fn new(leakage_limit_bits: u64, seed: u64) -> Self {
        Self {
            leakage_limit_bits,
            rng: SplitMix64::new(seed),
            entries: Vec::new(),
        }
    }

    /// Registers a tenant: manufactures its processor context, authorizes
    /// `params` against `L`, establishes its session, and returns its id.
    ///
    /// # Errors
    ///
    /// [`SessionError::LeakageLimitExceeded`] when `params` exceed `L`;
    /// session-establishment errors otherwise.
    pub fn register(&mut self, name: &str, params: LeakageParams) -> Result<usize, SessionError> {
        let mut processor = SecureProcessor::manufacture(&mut self.rng, self.leakage_limit_bits);
        let authorized_bits = processor.authorize(&params)?;
        let session = UserSession::establish(&mut processor, &mut self.rng)?;
        let id = self.entries.len();
        self.entries.push(TenantEntry {
            id,
            name: name.to_string(),
            params,
            authorized_bits,
            processor,
            session,
        });
        Ok(id)
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in id order.
    pub fn entries(&self) -> &[TenantEntry] {
        &self.entries
    }

    /// One entry by id.
    pub fn entry(&self, id: usize) -> &TenantEntry {
        &self.entries[id]
    }

    /// The leakage limit every tenant's processor was manufactured with.
    pub fn leakage_limit_bits(&self) -> u64 {
        self.leakage_limit_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_core::EpochSchedule;

    fn params(rate_count: usize, growth: u32) -> LeakageParams {
        LeakageParams {
            rate_count,
            schedule: EpochSchedule::scaled(growth),
        }
    }

    #[test]
    fn registers_tenants_within_limit() {
        let mut d = TenantDirectory::new(32, 0xD1);
        let a = d.register("alice", params(4, 4)).expect("fits: 32 bits");
        let b = d.register("bob", params(1, 4)).expect("fits: 0 bits");
        assert_eq!((a, b), (0, 1));
        assert_eq!(d.len(), 2);
        assert_eq!(d.entry(a).authorized_bits, 32);
        assert_eq!(d.entry(b).authorized_bits, 0);
    }

    #[test]
    fn rejects_over_budget_params() {
        let mut d = TenantDirectory::new(32, 0xD2);
        // R4/E2 at scale = 64 bits > 32.
        let err = d.register("eve", params(4, 2)).expect_err("over limit");
        assert!(matches!(err, SessionError::LeakageLimitExceeded { .. }));
        assert!(d.is_empty());
    }

    #[test]
    fn eviction_marks_but_retains_the_entry() {
        // The host records an eviction in its tenant state; the
        // directory keeps the entry, since ids are dense and never
        // reused and the frozen ledger row still names it.
        use crate::host::{HostConfig, MultiTenantHost, TenantSpec};
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        let spec = |name: &str| TenantSpec {
            name: name.into(),
            benchmark: otc_workloads::SpecBenchmark::Mcf,
            policy: otc_core::RatePolicy::Static { rate: 2_000 },
            instructions: 1_000,
        };
        let a = host.add_tenant(&spec("alice")).expect("admit");
        let b = host.add_tenant(&spec("bob")).expect("admit");
        host.evict(a).expect("evict");
        assert!(!host.tenant_active(a));
        assert!(host.tenant_active(b));
        assert_eq!(host.directory().len(), 2, "entries are retained");
        assert_eq!(host.directory().entry(a).name, "alice");
        // A returning tenant gets a fresh id, never a reused one.
        let a2 = host.add_tenant(&spec("alice")).expect("re-admit");
        assert_eq!(a2, 2);
    }

    #[test]
    fn sessions_stay_live_across_registrations() {
        // Each tenant has its own processor register, so registering a
        // new tenant must not clobber an earlier tenant's session key.
        let mut d = TenantDirectory::new(32, 0xD3);
        let a = d.register("alice", params(4, 4)).expect("register a");
        let _b = d.register("bob", params(4, 4)).expect("register b");
        // Alice's session still decrypts what her processor encrypts.
        let entry = d.entry(a);
        let enc = entry.session().encrypt_data(b"alice-private");
        let mut proc = SecureProcessor::manufacture(&mut SplitMix64::new(1), 32);
        // Can't run on a foreign processor...
        assert!(proc
            .run_program(&enc, &entry.params, |d| d.to_vec())
            .is_err());
        // ...but alice's own round-trips: her session key and her
        // processor's register still agree after bob registered.
        let plain = entry.session().decrypt_result(&enc);
        assert_eq!(plain, b"alice-private");
    }
}
