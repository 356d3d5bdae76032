package devmodel

import "nassim/internal/telemetry"

// This file defines the domain vocabulary the generator draws from: the
// feature areas of a datacenter router/switch, the objects and attributes
// configurable in each, per-vendor wording, and the synonym structure that
// gives the Mapper evaluation its difficulty profile (§7.3): IR only sees
// exact lexical overlap, the simulated SBERT additionally knows *general
// English* synonyms, and only a fine-tuned NetBERT can learn the *domain*
// synonym pairs (peer/neighbor, vlan/service, ...) that dominate
// vendor-to-UDM divergence.

// logger is the structured logger generation progress is reported through.
var logger = telemetry.Logger("devmodel")

// attrSpec is a configurable attribute of an object.
type attrSpec struct {
	name     string // parameter placeholder name
	typ      ParamType
	min, max int64  // for TypeInt
	phrase   string // canonical noun phrase used in descriptions
}

// objSpec is a configurable object within a feature.
type objSpec struct {
	noun   string // command keyword introducing the object
	param  attrSpec
	attrs  []attrSpec
	phrase string // canonical noun phrase
}

// featureSpec is a protocol or subsystem area of the device model.
type featureSpec struct {
	name    string // canonical feature keyword, e.g. "bgp"
	title   string // human name used in view names, e.g. "BGP"
	objects []objSpec
}

// Common attribute pool. Features mix these with feature-specific ones so
// the generated model has realistic repetition (every protocol has timers,
// priorities and limits) without hand-writing thousands of commands. The
// pool is organized in FAMILIES of near-duplicate attributes (five
// interval knobs, five timers, four limits, ...) whose descriptions share
// most content words: exactly the within-feature confusability that keeps
// the paper's recall@1 far below recall@10 — a mapper must separate "the
// interval between hello packets" from four sibling intervals. Consecutive
// pool entries land in the same feature (the generator takes a rotating
// window), so every feature gets whole families.
// Family phrases are uniform on purpose: siblings differ in a single
// discriminator word, and every discriminator lives in one of the synonym
// tables, so which model can recover it depends only on the table tier
// (domain vs general) and the vendor's divergence rates.
var genericAttrs = []attrSpec{
	// interval family (discriminators: hello/dead = domain tier,
	// poll/retransmit/advertise = general tier)
	{"hello-interval", TypeInt, 1, 65535, "interval between hello packets in seconds"},
	{"dead-interval", TypeInt, 1, 65535, "interval between dead peer checks in seconds"},
	{"retransmit-interval", TypeInt, 1, 65535, "interval between retransmit packets in seconds"},
	{"poll-interval", TypeInt, 1, 65535, "interval between poll packets in seconds"},
	{"advertise-interval", TypeInt, 1, 65535, "interval between advertise packets in seconds"},
	// timer family
	{"hold-time", TypeInt, 3, 65535, "hold time of the session in seconds"},
	{"keepalive-time", TypeInt, 1, 21845, "keepalive time of the session in seconds"},
	{"suppress-time", TypeInt, 1, 65535, "suppress time of the route in seconds"},
	{"reuse-time", TypeInt, 1, 65535, "reuse time of the route in seconds"},
	{"delay-time", TypeInt, 1, 65535, "delay time of the state change in seconds"},
	// limit family
	{"route-limit", TypeInt, 1, 1000000, "maximum number of route entries allowed"},
	{"prefix-limit", TypeInt, 1, 1000000, "maximum number of prefix entries allowed"},
	{"session-limit", TypeInt, 1, 100000, "maximum number of session entries allowed"},
	{"log-limit", TypeInt, 1, 100000, "maximum number of log entries allowed"},
	// priority family
	{"priority-value", TypeInt, 0, 255, "priority used for selection"},
	{"preference-value", TypeInt, 1, 255, "preference used for selection"},
	{"weight-value", TypeInt, 0, 100, "weight used for selection"},
	{"cost-value", TypeInt, 1, 65535, "cost used for selection"},
	// size family
	{"mtu-value", TypeInt, 128, 9600, "mtu size in bytes"},
	{"burst-size", TypeInt, 1, 1000000, "burst size in bytes"},
	{"queue-length", TypeInt, 1, 10000, "queue size in packets"},
	{"buffer-size", TypeInt, 1, 1000000, "buffer size in bytes"},
	// rate family
	{"rate-value", TypeInt, 8, 10000000, "committed rate in kbps"},
	{"bandwidth-value", TypeInt, 1, 400000, "bandwidth rate in kbps"},
	{"cir-value", TypeInt, 8, 10000000, "guaranteed rate in kbps"},
	// threshold family
	{"threshold-value", TypeInt, 1, 100, "alarm threshold percentage"},
	{"high-threshold", TypeInt, 1, 100, "high threshold percentage"},
	{"low-threshold", TypeInt, 1, 100, "low threshold percentage"},
	// authentication family
	{"password-string", TypeString, 0, 0, "password used for authentication"},
	{"key-id", TypeInt, 1, 255, "key identifier used for authentication"},
	{"auth-key-string", TypeString, 0, 0, "key string used for authentication"},
	// count family
	{"retry-count", TypeInt, 1, 16, "retry count of the operation"},
	{"probe-count", TypeInt, 1, 16, "probe count of the operation"},
	// singletons
	{"description-text", TypeString, 0, 0, "description text"},
	{"timeout-value", TypeInt, 1, 86400, "timeout in seconds"},
	{"ttl-value", TypeInt, 1, 255, "ttl of emitted packets"},
}

// features is the feature library. The curated objects give every feature a
// realistic core; the generator expands combinatorially over objects × attrs
// × command patterns, then pads with numbered profile variants until the
// per-vendor Table 4 command counts are met.
var features = []featureSpec{
	{
		name: "bgp", title: "BGP",
		objects: []objSpec{
			{noun: "peer", phrase: "BGP peer",
				param: attrSpec{"ipv4-address", TypeIPv4, 0, 0, "IPv4 address"},
				attrs: []attrSpec{
					{"as-number", TypeInt, 1, 4294967295, "autonomous system number"},
					{"group-name", TypeString, 0, 0, "peer group name"},
					{"connect-interface", TypeString, 0, 0, "source interface of TCP connections"},
					{"route-limit", TypeInt, 1, 4294967295, "maximum number of routes accepted"},
				}},
			{noun: "network", phrase: "advertised network",
				param: attrSpec{"network-address", TypeIPv4, 0, 0, "network address"},
				attrs: []attrSpec{
					{"mask-length", TypeInt, 0, 32, "mask length"},
					{"route-policy-name", TypeString, 0, 0, "route policy applied on advertisement"},
				}},
			{noun: "group", phrase: "peer group",
				param: attrSpec{"group-name", TypeString, 0, 0, "peer group name"},
				attrs: []attrSpec{
					{"as-number", TypeInt, 1, 4294967295, "autonomous system number"},
				}},
		},
	},
	{
		name: "ospf", title: "OSPF",
		objects: []objSpec{
			{noun: "area", phrase: "OSPF area",
				param: attrSpec{"area-id", TypeInt, 0, 4294967295, "area identifier"},
				attrs: []attrSpec{
					{"stub-cost", TypeInt, 1, 16777214, "default route cost advertised into a stub area"},
					{"authentication-mode", TypeString, 0, 0, "authentication mode"},
				}},
			{noun: "network", phrase: "OSPF network segment",
				param: attrSpec{"network-address", TypeIPv4, 0, 0, "network address"},
				attrs: []attrSpec{
					{"wildcard-mask", TypeIPv4, 0, 0, "wildcard mask"},
				}},
		},
	},
	{
		name: "isis", title: "IS-IS",
		objects: []objSpec{
			{noun: "net-entity", phrase: "network entity title",
				param: attrSpec{"net-title", TypeString, 0, 0, "network entity title"},
				attrs: []attrSpec{
					{"level-value", TypeInt, 1, 2, "IS-IS level"},
				}},
		},
	},
	{
		name: "interface", title: "interface",
		objects: []objSpec{
			{noun: "ip", phrase: "interface IP configuration",
				param: attrSpec{"ip-address", TypeIPv4, 0, 0, "IPv4 address"},
				attrs: []attrSpec{
					{"mask-length", TypeInt, 0, 32, "mask length"},
				}},
			{noun: "speed", phrase: "interface speed",
				param: attrSpec{"speed-value", TypeInt, 10, 400000, "interface speed in Mbps"},
				attrs: []attrSpec{}},
			{noun: "duplex", phrase: "duplex mode",
				param: attrSpec{"duplex-mode", TypeString, 0, 0, "duplex mode"},
				attrs: []attrSpec{}},
		},
	},
	{
		name: "vlan", title: "VLAN",
		objects: []objSpec{
			{noun: "vlan", phrase: "VLAN",
				param: attrSpec{"vlan-id", TypeInt, 1, 4094, "VLAN identifier"},
				attrs: []attrSpec{
					{"vlan-name", TypeString, 0, 0, "VLAN name"},
				}},
		},
	},
	{
		name: "stp", title: "STP",
		objects: []objSpec{
			{noun: "instance", phrase: "spanning tree instance",
				param: attrSpec{"instance-id", TypeInt, 0, 4094, "spanning tree instance identifier"},
				attrs: []attrSpec{
					{"root-priority", TypeInt, 0, 61440, "root bridge priority"},
				}},
		},
	},
	{
		name: "acl", title: "ACL",
		objects: []objSpec{
			{noun: "rule", phrase: "ACL rule",
				param: attrSpec{"rule-id", TypeInt, 0, 4294967294, "rule identifier"},
				attrs: []attrSpec{
					{"source-address", TypeIPv4, 0, 0, "source IPv4 address"},
					{"destination-address", TypeIPv4, 0, 0, "destination IPv4 address"},
					{"protocol-number", TypeInt, 0, 255, "protocol number"},
				}},
		},
	},
	{
		name: "qos", title: "QoS",
		objects: []objSpec{
			{noun: "queue", phrase: "output queue",
				param: attrSpec{"queue-id", TypeInt, 0, 7, "queue index"},
				attrs: []attrSpec{
					{"scheduling-weight", TypeInt, 1, 100, "scheduling weight"},
					{"shaping-rate", TypeInt, 8, 10000000, "shaping rate in kbps"},
				}},
			{noun: "classifier", phrase: "traffic classifier",
				param: attrSpec{"classifier-name", TypeString, 0, 0, "classifier name"},
				attrs: []attrSpec{
					{"dscp-value", TypeInt, 0, 63, "DSCP value"},
				}},
		},
	},
	{
		name: "mpls", title: "MPLS",
		objects: []objSpec{
			{noun: "lsp", phrase: "label switched path",
				param: attrSpec{"lsp-name", TypeString, 0, 0, "LSP name"},
				attrs: []attrSpec{
					{"label-value", TypeInt, 16, 1048575, "MPLS label"},
				}},
		},
	},
	{
		name: "vrrp", title: "VRRP",
		objects: []objSpec{
			{noun: "vrid", phrase: "virtual router",
				param: attrSpec{"vrid-value", TypeInt, 1, 255, "virtual router identifier"},
				attrs: []attrSpec{
					{"virtual-ip", TypeIPv4, 0, 0, "virtual IPv4 address"},
				}},
		},
	},
	{
		name: "dhcp", title: "DHCP",
		objects: []objSpec{
			{noun: "pool", phrase: "address pool",
				param: attrSpec{"pool-name", TypeString, 0, 0, "address pool name"},
				attrs: []attrSpec{
					{"lease-days", TypeInt, 0, 365, "lease duration in days"},
					{"gateway-address", TypeIPv4, 0, 0, "gateway address"},
				}},
		},
	},
	{
		name: "snmp", title: "SNMP",
		objects: []objSpec{
			{noun: "community", phrase: "SNMP community",
				param: attrSpec{"community-name", TypeString, 0, 0, "community name"},
				attrs: []attrSpec{
					{"acl-number", TypeInt, 2000, 2999, "ACL applied to the community"},
				}},
			{noun: "trap", phrase: "SNMP trap target",
				param: attrSpec{"host-address", TypeIPv4, 0, 0, "trap host address"},
				attrs: []attrSpec{
					{"udp-port", TypeInt, 1, 65535, "UDP port"},
				}},
		},
	},
	{
		name: "ntp", title: "NTP",
		objects: []objSpec{
			{noun: "server", phrase: "NTP server",
				param: attrSpec{"server-address", TypeIPv4, 0, 0, "server address"},
				attrs: []attrSpec{
					{"version-number", TypeInt, 1, 4, "NTP version"},
				}},
		},
	},
	{
		name: "aaa", title: "AAA",
		objects: []objSpec{
			{noun: "local-user", phrase: "local user account",
				param: attrSpec{"user-name", TypeString, 0, 0, "user name"},
				attrs: []attrSpec{
					{"privilege-level", TypeInt, 0, 15, "privilege level"},
				}},
		},
	},
	{
		name: "syslog", title: "syslog",
		objects: []objSpec{
			{noun: "loghost", phrase: "log host",
				param: attrSpec{"host-address", TypeIPv4, 0, 0, "log host address"},
				attrs: []attrSpec{
					{"facility-number", TypeInt, 0, 23, "syslog facility"},
				}},
		},
	},
	{
		name: "multicast", title: "multicast",
		objects: []objSpec{
			{noun: "pim", phrase: "PIM instance",
				param: attrSpec{"instance-name", TypeString, 0, 0, "instance name"},
				attrs: []attrSpec{
					{"dr-priority", TypeInt, 0, 4294967295, "designated router priority"},
				}},
			{noun: "msdp-peer", phrase: "MSDP peer",
				param: attrSpec{"peer-address", TypeIPv4, 0, 0, "MSDP peer address"},
				attrs: []attrSpec{}},
		},
	},
	{
		name: "mirror", title: "mirroring",
		objects: []objSpec{
			{noun: "session", phrase: "mirroring session",
				param: attrSpec{"session-id", TypeInt, 1, 4, "session identifier"},
				attrs: []attrSpec{}},
		},
	},
	{
		name: "lldp", title: "LLDP",
		objects: []objSpec{
			{noun: "management-address", phrase: "management address advertised by LLDP",
				param: attrSpec{"ip-address", TypeIPv4, 0, 0, "management address"},
				attrs: []attrSpec{}},
		},
	},
	{
		name: "bfd", title: "BFD",
		objects: []objSpec{
			{noun: "session", phrase: "BFD session",
				param: attrSpec{"session-name", TypeString, 0, 0, "session name"},
				attrs: []attrSpec{
					{"min-tx-interval", TypeInt, 3, 20000, "minimum transmit interval in milliseconds"},
					{"detect-multiplier", TypeInt, 3, 50, "detection multiplier"},
				}},
		},
	},
	{
		name: "route-policy", title: "route policy",
		objects: []objSpec{
			{noun: "node", phrase: "route policy node",
				param: attrSpec{"node-number", TypeInt, 0, 65535, "node number"},
				attrs: []attrSpec{
					{"match-cost", TypeInt, 0, 4294967295, "cost to match"},
					{"apply-preference", TypeInt, 1, 255, "preference to apply"},
				}},
		},
	},
	{
		name: "static-route", title: "static routing",
		objects: []objSpec{
			{noun: "route", phrase: "static route",
				param: attrSpec{"destination-prefix", TypePrefix, 0, 0, "destination prefix"},
				attrs: []attrSpec{
					{"next-hop-address", TypeIPv4, 0, 0, "next hop address"},
				}},
		},
	},
}

// verbWording captures per-vendor command verbs (Table 2's diversity).
type verbWording struct {
	show   string // check/inspect verb
	delete string // negation/removal verb
	enter  string // wording pattern in example prompts (unused in templates)
}

var vendorVerbs = map[Vendor]verbWording{
	Huawei:  {show: "display", delete: "undo", enter: "system-view"},
	Cisco:   {show: "show", delete: "no", enter: "configure terminal"},
	Nokia:   {show: "show", delete: "no", enter: "configure"},
	H3C:     {show: "display", delete: "undo", enter: "system-view"},
	Juniper: {show: "show", delete: "delete", enter: "configure"},
}

// viewStyle captures how each vendor names working views ('Views',
// 'Command Modes', 'Context', 'View' in the four manuals).
type viewStyle struct {
	root    string // root configuration view name
	pattern string // fmt pattern over the feature title, e.g. "%s view"
}

var vendorViewStyle = map[Vendor]viewStyle{
	Huawei:  {root: "system view", pattern: "%s view"},
	Cisco:   {root: "global configuration mode", pattern: "%s configuration mode"},
	Nokia:   {root: "configure context", pattern: "%s context"},
	H3C:     {root: "system view", pattern: "%s view"},
	Juniper: {root: "edit hierarchy level", pattern: "%s hierarchy level"},
}

// domainSynonyms are vendor-specific renamings of domain terms. These are
// deliberately NOT in the nlp package's general-English synonym table, so
// unsupervised encoders cannot bridge them — only NetBERT fine-tuning can,
// which is what produces the paper's supervised-vs-unsupervised gap.
var domainSynonyms = map[string]string{
	"peer":       "neighbor",
	"vlan":       "service",
	"interface":  "port",
	"route":      "prefix",
	"policy":     "statement",
	"area":       "zone",
	"pool":       "scope",
	"classifier": "match-class",
	"queue":      "forwarding-class",
	"loghost":    "collector",
	"community":  "access-group",
	"preference": "admin-distance",
	"cost":       "metric",
	"undo":       "no",
	"mask":       "netmask",
	"group":      "set",
	"instance":   "process",
	"session":    "liveness-check",
	"rule":       "entry",
	"label":      "tag",
	"stp":        "spanning-tree",
	"syslog":     "logging",
	"aaa":        "user-management",
	"mirror":     "monitor",
	"trap":       "notification",
	"lsp":        "tunnel",
	"keepalive":  "liveness",
	"hello":      "adjacency-probe",
	"dead":       "expiry",
	"suppress":   "dampening",
	"threshold":  "watermark",
	"vrid":       "virtual-router",
	"dscp":       "traffic-class",
	"wildcard":   "inverse",
	"mtu":        "max-frame",
	"ttl":        "hop-limit",
}

// abbrevs are vendor documentation abbreviations applied to parameter
// placeholder names ("as-number" -> "as-num"). They are deliberately NOT in
// the general-synonym table: bridging them requires either exact overlap
// elsewhere in the context (IR/SBERT) or learned alignment (NetBERT).
var abbrevs = map[string]string{
	"number":      "num",
	"address":     "addr",
	"interface":   "intf",
	"value":       "val",
	"identifier":  "id",
	"priority":    "prio",
	"description": "desc",
	"multiplier":  "mult",
	"destination": "dest",
	"source":      "src",
	"protocol":    "proto",
	"interval":    "intvl",
	"maximum":     "max",
	"minimum":     "min",
}

// vendorAbbrevRate is the probability a parameter-name segment is
// abbreviated in the vendor's manual.
var vendorAbbrevRate = map[Vendor]float64{
	Huawei:  0.30,
	Cisco:   0.50,
	Nokia:   0.55,
	H3C:     0.35,
	Juniper: 0.40,
}

// generalSynonyms are general-English synonym pairs a pretrained sentence
// encoder (SBERT) resolves without domain adaptation. The nlp package loads
// this table as its simulated pretraining knowledge.
var generalSynonyms = [][2]string{
	{"specifies", "sets"},
	{"specifies", "configures"},
	{"maximum", "upper-limit"},
	{"minimum", "lower-limit"},
	{"delete", "remove"},
	{"display", "show"},
	{"identifier", "id"},
	{"enable", "activate"},
	{"disable", "deactivate"},
	{"number", "count"},
	{"address", "addr"},
	{"duration", "time"},
	{"seconds", "secs"},
	{"value", "amount"},
	{"name", "label"},
	{"create", "add"},
	{"check", "verify"},
	{"applied", "attached"},
	{"accepted", "allowed"},
	{"advertised", "announced"},
	{"poll", "probe"},
	{"retransmit", "resend"},
	{"advertise", "announce"},
	{"hold", "wait"},
	{"reuse", "restore"},
	{"delay", "defer"},
	{"log", "record"},
	{"high", "upper"},
	{"low", "lower"},
	{"burst", "peak"},
	{"buffer", "cache"},
	{"password", "secret"},
	{"retry", "reattempt"},
	{"timeout", "expiration"},
	{"bandwidth", "throughput"},
	{"allowed", "permitted"},
	{"packets", "messages"},
	{"kept", "retained"},
	{"silent", "unresponsive"},
	{"sources", "origins"},
	{"election", "selection"},
	{"balancing", "sharing"},
	{"reserved", "allocated"},
	{"alarm", "warning"},
	{"key", "credential"},
	{"down", "failed"},
	{"flapping", "unstable"},
	{"priority", "precedence"},
	{"weight", "proportion"},
	{"guaranteed", "assured"},
	{"committed", "assured"},
}

// GeneralSynonyms exposes the general-English synonym pairs for the nlp
// package's simulated pretrained encoders.
func GeneralSynonyms() [][2]string {
	out := make([][2]string, len(generalSynonyms))
	copy(out, generalSynonyms)
	return out
}

// DomainSynonyms exposes the vendor-domain renaming table (for tests and for
// documenting the mapper's difficulty source; the mapper itself must *learn*
// these from annotated pairs, never read them).
func DomainSynonyms() map[string]string {
	out := make(map[string]string, len(domainSynonyms))
	for k, v := range domainSynonyms {
		out[k] = v
	}
	return out
}

// generalSynMap indexes generalSynonyms canonical -> variant.
var generalSynMap = func() map[string]string {
	out := map[string]string{}
	for _, p := range generalSynonyms {
		out[p[0]] = p[1]
	}
	return out
}()

// vendorDivergence is the probability that a domain term of the canonical
// (UDM) vocabulary is replaced by the vendor's own term — vendor dialects
// are real vocabularies, so the decision hashes the token alone and the
// renamed sets NEST across vendors (a low-divergence vendor renames a
// subset of what a high-divergence vendor renames), which is what lets
// cross-vendor fine-tuning transfer (§7.3). Huawei wording stays closest
// to the canonical vocabulary (its VDM-UDM mapping recall is the highest
// in Table 5); Nokia diverges most (its recall is the lowest).
var vendorDivergence = map[Vendor]float64{
	Huawei:  0.45,
	Cisco:   0.55,
	Nokia:   0.85,
	H3C:     0.50,
	Juniper: 0.55,
}

// vendorOpaqueRate is the probability a parameter's manual documentation
// is uninformative boilerplate ("set as required; see the configuration
// guide") instead of a real description. Such parameters can only be
// mapped through their remaining structural context (command, views), so
// they populate the deep tail of the recall curve — the pairs even the
// best model misses at top-30 (Tables 5/6 never reach 100).
var vendorOpaqueRate = map[Vendor]float64{
	Huawei:  0.06,
	Cisco:   0.12,
	Nokia:   0.25,
	H3C:     0.10,
	Juniper: 0.12,
}

// vendorGeneralRate is the probability that a general-English word is
// phrased with its synonym instead of the canonical form — divergence a
// pretrained sentence encoder bridges but exact lexical retrieval cannot.
var vendorGeneralRate = map[Vendor]float64{
	Huawei:  0.65,
	Cisco:   0.70,
	Nokia:   0.80,
	H3C:     0.65,
	Juniper: 0.70,
}
