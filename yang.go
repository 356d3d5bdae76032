package nassim

import (
	"nassim/internal/hierarchy"
	"nassim/internal/netconf"
	"nassim/internal/yang"
)

// This file exposes the §8.1/§8.2 extension: applying the
// Parsing-Validating-Mapping philosophy to YANG/NETCONF device models. The
// paper leaves vendor-YANG assimilation as future work and predicts the
// core philosophy carries over; these APIs implement it — generate (or
// obtain) vendor YANG modules, parse them, bridge them into the
// vendor-independent corpus format, and run the unchanged Validator and
// Mapper.

type (
	// YANGModule is a parsed vendor YANG module.
	YANGModule = yang.Module
	// YANGModuleSource is one generated vendor YANG module document.
	YANGModuleSource = yang.ModuleSource
	// YANGLeaf is one data leaf with its container path.
	YANGLeaf = yang.LeafPath
	// YANGOrigin locates a bridged corpus in its source module.
	YANGOrigin = yang.LeafOrigin
)

// SyntheticYANG renders the ground-truth model as the vendor's native YANG
// module set (the synthetic substitute for the vendors' YANG repositories
// the paper cites).
func SyntheticYANG(m *DeviceModel) []YANGModuleSource {
	return yang.Generate(m)
}

// ParseYANG parses one YANG module document.
func ParseYANG(src string) (*YANGModule, error) {
	return yang.Parse(src)
}

// YANGBridgeResult is the outcome of bridging YANG modules into the corpus
// format: corpora (one per leaf), the explicit hierarchy YANG's tree
// provides, and per-corpus origins.
type YANGBridgeResult struct {
	Corpora []Corpus
	Edges   []Edge
	Origin  []YANGOrigin
}

// BridgeYANG converts parsed vendor YANG modules into the corpus format so
// BuildVDM and the Mapper consume them unchanged.
func BridgeYANG(vendor string, modules []*YANGModule) *YANGBridgeResult {
	res := yang.Bridge(vendor, modules)
	edges := make([]Edge, len(res.Edges))
	for i, e := range res.Edges {
		edges[i] = hierarchy.Edge{Parent: e.Parent, Child: e.Child}
	}
	return &YANGBridgeResult{Corpora: res.Corpora, Edges: edges, Origin: res.Origin}
}

// YANGAnnotations translates CLI-side ground-truth annotations onto the
// bridged YANG corpora: each annotated command parameter is located as the
// leaf with the same name inside the module of the command's feature
// (preferring the container of the command's primary view). Annotations
// without a corresponding leaf are dropped.
func YANGAnnotations(m *DeviceModel, bridge *YANGBridgeResult, anns []Annotation) []Annotation {
	vendorLower := ""
	for _, r := range string(m.Vendor) {
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		vendorLower += string(r)
	}
	type key struct{ module, leaf, last string }
	exact := map[key]int{}
	loose := map[[2]string]int{}
	for i, o := range bridge.Origin {
		last := ""
		if len(o.Path) > 0 {
			last = o.Path[len(o.Path)-1]
		}
		k := key{o.Module, o.Leaf, last}
		if _, ok := exact[k]; !ok {
			exact[k] = i
		}
		lk := [2]string{o.Module, o.Leaf}
		if _, ok := loose[lk]; !ok {
			loose[lk] = i
		}
	}
	var out []Annotation
	for _, ann := range anns {
		if ann.Param.Corpus < 0 || ann.Param.Corpus >= len(m.Commands) {
			continue
		}
		cmd := m.Commands[ann.Param.Corpus]
		module := vendorLower + "-" + cmd.Feature
		idx, ok := exact[key{module, ann.Param.Name, yang.ContainerName(cmd.Views[0])}]
		if !ok {
			idx, ok = loose[[2]string{module, ann.Param.Name}]
		}
		if !ok {
			continue
		}
		out = append(out, Annotation{
			Param:  Parameter{Corpus: idx, Name: ann.Param.Name},
			AttrID: ann.AttrID,
		})
	}
	return out
}

// NETCONF exposure: the configuration protocol YANG models (§8.1). A
// YANG-assimilated device is served as a schema-validated datastore over a
// NETCONF-style TCP transport (hello exchange, edit-config / get-config,
// ]]>]]> framing) instead of the CLI transport.

type (
	// NetconfStore is a YANG-schema-validated configuration datastore.
	NetconfStore = netconf.Store
	// NetconfServer serves a datastore over the NETCONF-style protocol.
	NetconfServer = netconf.Server
	// NetconfClient is a NETCONF session.
	NetconfClient = netconf.Client
)

// NewNetconfStore builds a datastore over the device's YANG modules.
func NewNetconfStore(modules []*YANGModule) *NetconfStore {
	return netconf.NewStore(modules)
}

// ServeNetconf serves a datastore over TCP ("127.0.0.1:0" picks a port).
func ServeNetconf(store *NetconfStore, addr string) (*NetconfServer, error) {
	return netconf.Serve(store, addr)
}

// DialNetconf opens a NETCONF session.
func DialNetconf(addr string) (*NetconfClient, error) {
	return netconf.Dial(addr)
}
