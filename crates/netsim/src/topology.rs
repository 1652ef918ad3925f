//! Grid topology: sites (clusters) of nodes joined by WAN links.
//!
//! The model is deliberately shaped like Grid'5000 (RR-6200 §3.2): every
//! node has a full-duplex NIC attached to a non-blocking site switch, and
//! sites are joined pairwise by dedicated WAN links with a measured RTT.
//! Bandwidth contention is modelled on three classes of *directed* links:
//! node uplinks, node downlinks, and per-direction WAN links.

use desim::SimDuration;

use crate::config::KernelConfig;

/// Identifier of a node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

/// Identifier of a site (cluster).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub(crate) u32);

/// Identifier of a directed capacity-shared link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub(crate) u32);

impl NodeId {
    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Dense index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SiteId {
    /// Dense index of this site.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-node hardware/software parameters.
#[derive(Clone, Debug)]
pub struct NodeParams {
    /// NIC line rate, bytes/s, each direction (paper: 1 Gbps Ethernet).
    pub nic_bytes_per_sec: f64,
    /// Scalar compute rate in Gflop/s used by workload compute models
    /// (paper Table 3: 2.0–2.2 GHz Opterons).
    pub cpu_gflops: f64,
    /// Kernel network configuration of this host.
    pub kernel: KernelConfig,
}

/// TCP goodput of a 1 Gbps Ethernet NIC in bytes/s (940 Mbps after
/// protocol overhead — the plateau the paper measures in Fig. 5).
pub const GIGABIT_GOODPUT: f64 = 117.5e6;

impl Default for NodeParams {
    fn default() -> Self {
        NodeParams {
            nic_bytes_per_sec: GIGABIT_GOODPUT,
            cpu_gflops: 2.0,
            kernel: KernelConfig::untuned_2007(),
        }
    }
}

/// A high-speed local interconnect available inside a site (Myrinet,
/// Infiniband, SCI — the fabrics MPICH-Madeleine and the VendorMPIs of
/// §2.1 can exploit instead of TCP).
#[derive(Clone, Debug)]
pub struct FastLanParams {
    /// Fabric name ("myrinet", "infiniband", …).
    pub name: String,
    /// Payload rate in bytes/s per direction.
    pub bytes_per_sec: f64,
    /// One-way latency between two nodes over the fabric.
    pub one_way: SimDuration,
}

impl FastLanParams {
    /// Myrinet 2000: ~2 Gbps payload, ~10 µs one-way.
    pub fn myrinet() -> FastLanParams {
        FastLanParams {
            name: "myrinet".to_string(),
            bytes_per_sec: 250e6,
            one_way: SimDuration::from_micros(10),
        }
    }

    /// 4x Infiniband: ~8 Gbps payload, ~5 µs one-way.
    pub fn infiniband() -> FastLanParams {
        FastLanParams {
            name: "infiniband".to_string(),
            bytes_per_sec: 1e9,
            one_way: SimDuration::from_micros(5),
        }
    }
}

/// Per-site parameters.
#[derive(Clone, Debug)]
pub struct SiteParams {
    /// Human-readable site name.
    pub name: String,
    /// One-way latency between two nodes of the site (wire + switch +
    /// both IP stacks). The paper's raw-TCP cluster pingpong shows 41 µs
    /// one-way.
    pub lan_one_way: SimDuration,
    /// Optional high-speed fabric alongside Ethernet (used only by
    /// libraries that manage network heterogeneity; see
    /// [`crate::Network::fast_channel`]).
    pub fast_lan: Option<FastLanParams>,
}

impl Default for SiteParams {
    fn default() -> Self {
        SiteParams {
            name: String::new(),
            lan_one_way: SimDuration::from_micros(30),
            fast_lan: None,
        }
    }
}

/// One direction of a WAN link between two sites.
#[derive(Clone, Debug)]
struct WanLink {
    from: SiteId,
    to: SiteId,
    rtt: SimDuration,
    link: LinkId,
}

#[derive(Clone, Debug)]
pub(crate) struct LinkInfo {
    /// Capacity in bytes/s.
    pub capacity: f64,
    /// Bottleneck queue in bytes (drop-tail buffer) — only meaningful for
    /// WAN links, where slow-start overshoot losses happen.
    pub queue_bytes: u64,
    /// What the link belongs to.
    owner: LinkOwner,
}

/// The owner of a directed link, which names it in host profiles.
#[derive(Clone, Copy, Debug)]
enum LinkOwner {
    /// An access or fast-fabric link of one of the site's nodes.
    Site(SiteId),
    /// A WAN trunk: the index of its [`WanLink`].
    Wan(usize),
}

#[derive(Clone, Debug)]
pub(crate) struct NodeInfo {
    pub site: SiteId,
    pub params: NodeParams,
    pub uplink: LinkId,
    pub downlink: LinkId,
    pub fast_uplink: Option<LinkId>,
    pub fast_downlink: Option<LinkId>,
}

/// The resolved properties of a source→destination route.
#[derive(Clone, Debug)]
pub struct Path {
    /// Directed links whose capacity the flow consumes, in order.
    pub links: Vec<LinkId>,
    /// Round-trip time of the route.
    pub rtt: SimDuration,
    /// Minimum link capacity along the route, bytes/s.
    pub bottleneck: f64,
    /// Drop-tail queue of the bottleneck, bytes.
    pub queue_bytes: u64,
    /// True for inter-site routes (rate-mismatched WAN→NIC bursts can
    /// overflow the destination port queue).
    pub wan: bool,
}

impl Path {
    /// Bandwidth-delay product of the route in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        (self.bottleneck * self.rtt.as_secs_f64()) as u64
    }
}

/// A buildable grid topology.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    sites: Vec<SiteParams>,
    nodes: Vec<NodeInfo>,
    links: Vec<LinkInfo>,
    wan: Vec<WanLink>,
    /// One-way latency of node-local (loopback/shared-memory) transfers.
    pub loopback_one_way: SimDuration,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology {
            loopback_one_way: SimDuration::from_micros(1),
            ..Topology::default()
        }
    }

    /// Add a site.
    pub fn add_site(&mut self, name: impl Into<String>, mut params: SiteParams) -> SiteId {
        params.name = name.into();
        self.sites.push(params);
        SiteId(self.sites.len() as u32 - 1)
    }

    /// Add a node to `site`; allocates its uplink and downlink (plus fast
    /// fabric ports if the site has one).
    pub fn add_node(&mut self, site: SiteId, params: NodeParams) -> NodeId {
        let cap = params.nic_bytes_per_sec;
        let owner = LinkOwner::Site(site);
        let uplink = self.add_link(cap, 256 * 1024, owner);
        let downlink = self.add_link(cap, 256 * 1024, owner);
        let (fast_uplink, fast_downlink) = match &self.sites[site.index()].fast_lan {
            Some(f) => {
                let rate = f.bytes_per_sec;
                (
                    Some(self.add_link(rate, 1 << 20, owner)),
                    Some(self.add_link(rate, 1 << 20, owner)),
                )
            }
            None => (None, None),
        };
        self.nodes.push(NodeInfo {
            site,
            params,
            uplink,
            downlink,
            fast_uplink,
            fast_downlink,
        });
        NodeId(self.nodes.len() as u32 - 1)
    }

    fn add_link(&mut self, capacity: f64, queue_bytes: u64, owner: LinkOwner) -> LinkId {
        self.links.push(LinkInfo {
            capacity,
            queue_bytes,
            owner,
        });
        LinkId(self.links.len() as u32 - 1)
    }

    /// Join two sites with a symmetric WAN link pair.
    ///
    /// `rtt` is the measured node-to-node round-trip across the WAN;
    /// `capacity` is bytes/s per direction; `queue_bytes` models the
    /// bottleneck router buffer (drives slow-start overshoot losses).
    pub fn connect_sites(
        &mut self,
        a: SiteId,
        b: SiteId,
        rtt: SimDuration,
        capacity: f64,
        queue_bytes: u64,
    ) {
        for (from, to) in [(a, b), (b, a)] {
            let link = self.add_link(capacity, queue_bytes, LinkOwner::Wan(self.wan.len()));
            self.wan.push(WanLink {
                from,
                to,
                rtt,
                link,
            });
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Site of a node.
    pub fn site_of(&self, n: NodeId) -> SiteId {
        self.nodes[n.index()].site
    }

    /// Site name.
    pub fn site_name(&self, s: SiteId) -> &str {
        &self.sites[s.index()].name
    }

    /// Node parameters.
    pub fn node(&self, n: NodeId) -> &NodeParams {
        &self.nodes[n.index()].params
    }

    /// Apply one kernel configuration to every node (the paper tunes all
    /// hosts identically).
    pub fn set_kernel_all(&mut self, cfg: KernelConfig) {
        for n in &mut self.nodes {
            n.params.kernel = cfg;
        }
    }

    /// Directed links attached to a node's interfaces (uplink, downlink,
    /// and the fast-fabric pair when present) — the set a NIC stall takes
    /// down.
    pub(crate) fn node_links(&self, n: NodeId) -> Vec<LinkId> {
        let i = &self.nodes[n.index()];
        let mut v = vec![i.uplink, i.downlink];
        v.extend(i.fast_uplink);
        v.extend(i.fast_downlink);
        v
    }

    pub(crate) fn link(&self, l: LinkId) -> &LinkInfo {
        &self.links[l.0 as usize]
    }

    fn wan_between(&self, a: SiteId, b: SiteId) -> Option<&WanLink> {
        self.wan.iter().find(|w| w.from == a && w.to == b)
    }

    /// Resolve the route from `src` to `dst`.
    ///
    /// # Panics
    /// Panics if the two sites are not connected, or if the route's
    /// round-trip time is zero (a site's `lan_one_way`, a WAN link's RTT
    /// or `loopback_one_way`): TCP window rounds one RTT apart would
    /// never advance virtual time.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Path {
        if src == dst {
            assert!(
                self.loopback_one_way > SimDuration::ZERO,
                "zero loopback round-trip time (loopback_one_way is 0)"
            );
            // Node-local: shared-memory speed, no shared links.
            return Path {
                links: Vec::new(),
                rtt: self.loopback_one_way * 2,
                bottleneck: 4e9, // ~4 GB/s memcpy-class
                queue_bytes: u64::MAX,
                wan: false,
            };
        }
        let (si, di) = (&self.nodes[src.index()], &self.nodes[dst.index()]);
        if si.site == di.site {
            let lan = &self.sites[si.site.index()];
            assert!(
                lan.lan_one_way > SimDuration::ZERO,
                "site {}: zero LAN round-trip time (lan_one_way is 0)",
                lan.name
            );
            let cap = si.params.nic_bytes_per_sec.min(di.params.nic_bytes_per_sec);
            return Path {
                links: vec![si.uplink, di.downlink],
                rtt: lan.lan_one_way * 2,
                bottleneck: cap,
                queue_bytes: 256 * 1024,
                wan: false,
            };
        }
        let wan = self
            .wan_between(si.site, di.site)
            .unwrap_or_else(|| {
                panic!(
                    "no WAN link between sites {} and {}",
                    self.site_name(si.site),
                    self.site_name(di.site)
                )
            })
            .clone();
        assert!(
            wan.rtt > SimDuration::ZERO,
            "WAN link {}->{}: zero round-trip time",
            self.site_name(wan.from),
            self.site_name(wan.to)
        );
        let wl = self.link(wan.link);
        let bottleneck = si
            .params
            .nic_bytes_per_sec
            .min(di.params.nic_bytes_per_sec)
            .min(wl.capacity);
        Path {
            links: vec![si.uplink, wan.link, di.downlink],
            rtt: wan.rtt,
            bottleneck,
            queue_bytes: wl.queue_bytes,
            wan: true,
        }
    }

    /// The high-speed route between two nodes of the same site, if the
    /// site has a fast fabric. `None` across sites or on Ethernet-only
    /// sites.
    ///
    /// # Panics
    /// Panics if the fabric's one-way latency is zero, as [`Self::route`]
    /// does for a zero round-trip time.
    pub fn route_fast(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        if src == dst {
            return Some(self.route(src, dst));
        }
        let (si, di) = (&self.nodes[src.index()], &self.nodes[dst.index()]);
        if si.site != di.site {
            return None;
        }
        let site = &self.sites[si.site.index()];
        let fast = site.fast_lan.as_ref()?;
        assert!(
            fast.one_way > SimDuration::ZERO,
            "site {}: zero {} round-trip time (one_way is 0)",
            site.name,
            fast.name
        );
        Some(Path {
            links: vec![si.fast_uplink?, di.fast_downlink?],
            rtt: fast.one_way * 2,
            bottleneck: fast.bytes_per_sec,
            queue_bytes: u64::MAX,
            wan: false,
        })
    }

    /// True if `l` is a WAN trunk (one direction of a site pair).
    pub(crate) fn is_wan_link(&self, l: LinkId) -> bool {
        matches!(self.links[l.index()].owner, LinkOwner::Wan(_))
    }

    /// The profiler labels of the links, one per owner: each site's
    /// (`site:<name>`, shared by its nodes' access and fast-fabric
    /// links), then each WAN trunk's (`wan:<a>-><b>`).
    pub(crate) fn link_labels(&self) -> Vec<String> {
        let sites = self.sites.iter().map(|s| format!("site:{}", s.name));
        let trunks = self
            .wan
            .iter()
            .map(|w| format!("wan:{}->{}", self.site_name(w.from), self.site_name(w.to)));
        sites.chain(trunks).collect()
    }

    /// `prefix`, then a name for [`Topology::link_labels`], built without
    /// formatting: topologies with equal tags have equal labels.
    pub(crate) fn link_labels_tag(&self, prefix: &str) -> String {
        let mut tag = String::from(prefix);
        tag.push('\n');
        for s in &self.sites {
            tag.push_str(&s.name);
            tag.push('\n');
        }
        for w in &self.wan {
            tag.push_str(self.site_name(w.from));
            tag.push('>');
            tag.push_str(self.site_name(w.to));
            tag.push('\n');
        }
        tag
    }

    /// The index of directed link `l`'s label in
    /// [`Topology::link_labels`].
    pub(crate) fn link_label_index(&self, l: LinkId) -> usize {
        match self.links[l.index()].owner {
            LinkOwner::Site(s) => s.index(),
            LinkOwner::Wan(i) => self.sites.len() + i,
        }
    }

    /// The directed WAN links as `(from_site, to_site, link)`.
    pub fn wan_links(&self) -> Vec<(SiteId, SiteId, LinkId)> {
        self.wan.iter().map(|w| (w.from, w.to, w.link)).collect()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All node ids belonging to `site`.
    pub fn nodes_of(&self, site: SiteId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.site == site)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_site_topo() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let s1 = t.add_site("rennes", SiteParams::default());
        let s2 = t.add_site("nancy", SiteParams::default());
        let a = t.add_node(s1, NodeParams::default());
        let b = t.add_node(s1, NodeParams::default());
        let c = t.add_node(s2, NodeParams::default());
        t.connect_sites(
            s1,
            s2,
            SimDuration::from_micros(11_600),
            10e9 / 8.0,
            512 * 1024,
        );
        (t, a, b, c)
    }

    #[test]
    fn intra_site_route() {
        let (t, a, b, _) = two_site_topo();
        let p = t.route(a, b);
        assert_eq!(p.links.len(), 2);
        assert_eq!(p.rtt.as_micros(), 60);
        assert_eq!(p.bottleneck, GIGABIT_GOODPUT);
    }

    #[test]
    fn wan_route_uses_wan_rtt_and_nic_bottleneck() {
        let (t, a, _, c) = two_site_topo();
        let p = t.route(a, c);
        assert_eq!(p.links.len(), 3);
        assert_eq!(p.rtt.as_millis(), 11);
        // NIC (1 Gbps goodput) is slower than the 10 Gbps WAN.
        assert_eq!(p.bottleneck, GIGABIT_GOODPUT);
        // BDP ≈ 1.36 MB goodput-equivalent of the 1.45 MB the paper quotes.
        let bdp = p.bdp_bytes();
        assert!((1_300_000..1_450_000).contains(&bdp), "bdp={bdp}");
    }

    #[test]
    fn loopback_route_has_no_links() {
        let (t, a, _, _) = two_site_topo();
        let p = t.route(a, a);
        assert!(p.links.is_empty());
        assert!(p.rtt.as_micros() <= 2);
    }

    #[test]
    #[should_panic(expected = "no WAN link")]
    fn disconnected_sites_panic() {
        let mut t = Topology::new();
        let s1 = t.add_site("a", SiteParams::default());
        let s2 = t.add_site("b", SiteParams::default());
        let a = t.add_node(s1, NodeParams::default());
        let b = t.add_node(s2, NodeParams::default());
        t.route(a, b);
    }

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("must panic");
        match err.downcast::<String>() {
            Ok(s) => *s,
            Err(err) => err.downcast::<&str>().expect("a message").to_string(),
        }
    }

    /// Each zero round-trip time is rejected when its route is built,
    /// naming the site or WAN link; no transfer needs to run.
    #[test]
    fn a_zero_round_trip_time_is_rejected_where_routes_are_built() {
        let (mut t, a, b, c) = two_site_topo();
        t.sites[0].lan_one_way = SimDuration::ZERO;
        assert_eq!(
            panic_message(|| drop(t.route(a, b))),
            "site rennes: zero LAN round-trip time (lan_one_way is 0)"
        );
        let (mut t, a, b, c2) = two_site_topo();
        t.wan[0].rtt = SimDuration::ZERO;
        assert_eq!(
            panic_message(|| drop(t.route(a, c2))),
            "WAN link rennes->nancy: zero round-trip time"
        );
        // Only the rennes -> nancy direction is zero.
        assert!(t.route(c2, a).rtt > SimDuration::ZERO);
        let (mut t, ..) = two_site_topo();
        t.loopback_one_way = SimDuration::ZERO;
        assert_eq!(
            panic_message(|| drop(t.route(b, b))),
            "zero loopback round-trip time (loopback_one_way is 0)"
        );
        let mut t = Topology::new();
        let fabric = FastLanParams {
            one_way: SimDuration::ZERO,
            ..FastLanParams::myrinet()
        };
        let lyon = t.add_site(
            "lyon",
            SiteParams {
                fast_lan: Some(fabric),
                ..SiteParams::default()
            },
        );
        let [x, y] = [0; 2].map(|_| t.add_node(lyon, NodeParams::default()));
        assert_eq!(
            panic_message(|| drop(t.route_fast(x, y))),
            "site lyon: zero myrinet round-trip time (one_way is 0)"
        );
        // The default latencies are all non-zero.
        let (t, ..) = two_site_topo();
        for (p, q) in [(a, b), (a, c), (a, a)] {
            assert!(t.route(p, q).rtt > SimDuration::ZERO);
        }
    }

    #[test]
    fn set_kernel_all_applies() {
        let (mut t, a, _, c) = two_site_topo();
        t.set_kernel_all(KernelConfig::tuned(4 << 20));
        assert_eq!(t.node(a).kernel.wmem_max, 4 << 20);
        assert_eq!(t.node(c).kernel.wmem_max, 4 << 20);
    }
}
