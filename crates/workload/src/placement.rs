//! Catalog placement over a multi-server metro: which server shards
//! host which titles.
//!
//! The scenario pack ([`crate::scenario`]) gives the *demand* side of a
//! metropolitan deployment — regions, access classes, region-local
//! catalogs behind a shared hot head. This module adds the *supply*
//! side: a [`Placement`] maps every global title to the set of server
//! shards that broadcast it, under one of four [`PlacementPolicy`]
//! recipes:
//!
//! * [`PlacementPolicy::FullReplication`] — every server hosts every
//!   title. Zero cross-server traffic, maximal broadcast spend: the
//!   naive metro deployment every other policy is measured against.
//! * [`PlacementPolicy::Partitioned`] — every title lives on exactly
//!   one server (its owning region's home). Minimal broadcast spend,
//!   maximal backbone traffic: the paper-bound corner.
//! * [`PlacementPolicy::HotHead`] — the shared hot head is replicated
//!   everywhere, the regional tail stays partitioned. The classic
//!   replicate-the-head compromise.
//! * [`PlacementPolicy::PopularityProportional`] — each title's replica
//!   count scales with its Zipf share (clamped to `1..=servers`),
//!   spread ring-wise from the owner.
//!
//! Everything is a pure function of the scenario and the server count:
//! two calls with equal inputs produce identical host tables, which is
//! what lets `analysis::distribution_study` promise byte-identical
//! artifacts across `--shards × --threads`.

use serde::{Deserialize, Serialize};

use crate::scenario::MetroScenario;
use crate::zipf::ZipfPopularity;

/// A catalog placement recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Every server hosts every title.
    FullReplication,
    /// Every title lives only on its owning region's home server.
    Partitioned,
    /// The hot head is replicated on every server; the regional tail is
    /// partitioned.
    HotHead,
    /// Replica count proportional to the title's Zipf share, at least
    /// one, spread ring-wise from the owner.
    PopularityProportional,
}

impl PlacementPolicy {
    /// Parse a CLI spelling (`full`, `partitioned`, `hothead`,
    /// `proportional`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Self::FullReplication),
            "partitioned" => Some(Self::Partitioned),
            "hothead" => Some(Self::HotHead),
            "proportional" => Some(Self::PopularityProportional),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FullReplication => "full",
            Self::Partitioned => "partitioned",
            Self::HotHead => "hothead",
            Self::PopularityProportional => "proportional",
        }
    }

    /// All four policies, in report order.
    #[must_use]
    pub fn all() -> Vec<Self> {
        vec![
            Self::FullReplication,
            Self::Partitioned,
            Self::HotHead,
            Self::PopularityProportional,
        ]
    }
}

/// A concrete title → hosting-servers table for one metro.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// The recipe that produced it.
    pub policy: PlacementPolicy,
    /// Server shard count (≥ 1).
    pub servers: usize,
    /// `hosts[title]` = sorted list of servers broadcasting the title.
    /// Every list is non-empty and always contains the owner's home.
    pub hosts: Vec<Vec<usize>>,
    /// `home[region]` = the region's home server (`region % servers`).
    pub home: Vec<usize>,
}

impl Placement {
    /// Build the placement for `scenario` over `servers` server shards.
    ///
    /// The owner of a title is its owning region's home server
    /// (`region_of_title(t) % servers`), so a partitioned tail always
    /// lands on the server its requesters call home.
    ///
    /// # Panics
    /// Panics when `servers` is zero.
    #[must_use]
    pub fn build(policy: PlacementPolicy, scenario: &MetroScenario, servers: usize) -> Self {
        assert!(servers > 0, "a metro needs at least one server");
        let titles = scenario.titles();
        let hot = scenario.config.hot_titles;
        let local = scenario.config.local_titles.max(1);
        // Zipf ranks as each region sees them: the hot head takes ranks
        // 0..hot, a local title its in-slice rank after the head.
        let zipf = ZipfPopularity::paper(hot + scenario.config.local_titles);
        let rank_of = |t: usize| if t < hot { t } else { hot + (t - hot) % local };
        let head_share = zipf.probability(0);
        let owner = |t: usize| scenario.region_of_title(t) % servers;

        let hosts: Vec<Vec<usize>> = (0..titles)
            .map(|t| {
                let replicas = match policy {
                    PlacementPolicy::FullReplication => servers,
                    PlacementPolicy::Partitioned => 1,
                    PlacementPolicy::HotHead => {
                        if t < hot {
                            servers
                        } else {
                            1
                        }
                    }
                    PlacementPolicy::PopularityProportional => {
                        // Replicas ∝ the title's Zipf share relative to
                        // the head rank, rounded up, clamped to the
                        // server ring.
                        let share = zipf.probability(rank_of(t)) / head_share;
                        ((servers as f64 * share).ceil() as usize).clamp(1, servers)
                    }
                };
                let start = owner(t);
                let mut list: Vec<usize> = (0..replicas).map(|i| (start + i) % servers).collect();
                list.sort_unstable();
                list
            })
            .collect();

        Self {
            policy,
            servers,
            hosts,
            home: (0..scenario.regions.len()).map(|r| r % servers).collect(),
        }
    }

    /// The servers hosting `title`.
    ///
    /// # Panics
    /// Panics when `title` is outside the catalog.
    #[must_use]
    pub fn hosts(&self, title: usize) -> &[usize] {
        &self.hosts[title]
    }

    /// Whether `server` broadcasts `title`.
    #[must_use]
    pub fn is_hosted(&self, server: usize, title: usize) -> bool {
        self.hosts[title].binary_search(&server).is_ok()
    }

    /// The home server of `region`.
    #[must_use]
    pub fn home_of(&self, region: usize) -> usize {
        self.home[region]
    }

    /// The server a session from `region` fetches `title` from: its
    /// home when the home hosts the title, otherwise the hosting server
    /// nearest on the ring (lowest id on ties) — a remote fetch.
    #[must_use]
    pub fn route(&self, region: usize, title: usize) -> usize {
        let home = self.home_of(region);
        if self.is_hosted(home, title) {
            return home;
        }
        *self.hosts[title]
            .iter()
            .min_by_key(|&&s| {
                let fwd = (s + self.servers - home) % self.servers;
                let back = (home + self.servers - s) % self.servers;
                (fwd.min(back), s)
            })
            .expect("every title has at least one host")
    }

    /// Titles stored per server, in server order — the storage story of
    /// the placement.
    #[must_use]
    pub fn storage_per_server(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.servers];
        for list in &self.hosts {
            for &s in list {
                out[s] += 1;
            }
        }
        out
    }

    /// Total replicas across the catalog (`Σ |hosts(t)|`).
    #[must_use]
    pub fn total_replicas(&self) -> usize {
        self.hosts.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioPreset;

    fn urban() -> MetroScenario {
        MetroScenario::generate(&ScenarioPreset::Urban.config(7))
    }

    #[test]
    fn policies_parse_and_name_round_trip() {
        for p in PlacementPolicy::all() {
            assert_eq!(PlacementPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(PlacementPolicy::parse("bogus"), None);
    }

    #[test]
    fn full_replication_puts_everything_everywhere() {
        let m = urban();
        let p = Placement::build(PlacementPolicy::FullReplication, &m, 4);
        assert_eq!(p.hosts.len(), m.titles());
        for t in 0..m.titles() {
            assert_eq!(p.hosts(t), &[0, 1, 2, 3]);
        }
        assert_eq!(p.storage_per_server(), vec![m.titles(); 4]);
    }

    #[test]
    fn partitioned_pins_each_title_to_its_owners_home() {
        let m = urban();
        let p = Placement::build(PlacementPolicy::Partitioned, &m, 4);
        for t in 0..m.titles() {
            let owner = m.region_of_title(t) % 4;
            assert_eq!(p.hosts(t), &[owner], "title {t}");
            // Its own region always routes home.
            assert_eq!(p.route(m.region_of_title(t), t), owner);
        }
        // The urban metro: 4 + 4·4 titles over 4 servers, evenly dealt.
        assert_eq!(p.storage_per_server(), vec![5; 4]);
    }

    #[test]
    fn hot_head_replicates_exactly_the_head() {
        let m = urban();
        let p = Placement::build(PlacementPolicy::HotHead, &m, 4);
        for t in 0..m.titles() {
            if t < m.config.hot_titles {
                assert_eq!(p.hosts(t).len(), 4, "hot title {t} must be everywhere");
            } else {
                assert_eq!(p.hosts(t).len(), 1, "tail title {t} must be partitioned");
            }
        }
        // Hot-head routing never crosses the backbone: every request is
        // either hot (home-hosted) or region-local tail (owner's home).
        for r in 0..m.regions.len() {
            for t in 0..m.config.hot_titles {
                assert_eq!(p.route(r, t), p.home_of(r));
            }
        }
    }

    #[test]
    fn proportional_scales_replicas_with_rank_and_keeps_one_minimum() {
        let m = urban();
        let p = Placement::build(PlacementPolicy::PopularityProportional, &m, 4);
        // Rank 0 (the hottest title) gets the full ring.
        assert_eq!(p.hosts(0).len(), 4);
        // Replica counts never increase with rank over the hot head.
        let counts: Vec<usize> = (0..m.config.hot_titles).map(|t| p.hosts(t).len()).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        // Every tail title keeps at least one replica, owner included.
        for t in m.config.hot_titles..m.titles() {
            assert!(!p.hosts(t).is_empty());
            let owner = m.region_of_title(t) % 4;
            assert!(p.hosts(t).contains(&owner));
        }
    }

    #[test]
    fn placement_is_deterministic_and_pins_the_urban_map() {
        let m = urban();
        for policy in PlacementPolicy::all() {
            for servers in [1, 2, 4] {
                let a = Placement::build(policy, &m, servers);
                let b = Placement::build(policy, &m, servers);
                assert_eq!(a, b, "{policy:?} × {servers} must be reproducible");
                for t in 0..m.titles() {
                    assert!(
                        a.hosts(t).windows(2).all(|w| w[0] < w[1]),
                        "sorted, deduped"
                    );
                }
            }
        }
        // The pinned title → host map for hot-head on two servers: hot
        // head everywhere, tail on its owner's home (region % 2).
        let p = Placement::build(PlacementPolicy::HotHead, &m, 2);
        let expect: Vec<Vec<usize>> = (0..m.titles())
            .map(|t| {
                if t < m.config.hot_titles {
                    vec![0, 1]
                } else {
                    vec![m.region_of_title(t) % 2]
                }
            })
            .collect();
        assert_eq!(p.hosts, expect);
    }

    #[test]
    fn remote_routes_pick_the_nearest_ring_host() {
        let m = urban();
        let p = Placement::build(PlacementPolicy::Partitioned, &m, 4);
        // A tail title owned by region 2 (home 2), requested from
        // region 1 (home 1): the only host is 2.
        let t = m.regions[2].local_titles[0];
        assert_eq!(p.route(1, t), 2);
        assert_ne!(p.route(1, t), p.home_of(1), "this is a remote fetch");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_is_rejected() {
        let _ = Placement::build(PlacementPolicy::FullReplication, &urban(), 0);
    }
}
