package cgm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nassim/internal/artifact"
	"nassim/internal/devmodel"
)

var indexTemplates = []struct{ id, tmpl string }{
	{"0", "qos <policy-name>"},
	{"1", "qos ipv4-family"},
	{"2", "interface <name>"},
	{"3", "interface <name> shutdown"},
	{"4", "ip address <addr> <mask>"},
	{"5", "qos queue <index> [ weight <w> ]"},
	{"10", "qos { inbound | outbound }"},
	// One template per shape the second position can take, as the index
	// keys file it: fixed keywords, a parameter, an optional keyword before
	// a parameter, a keyword-or-parameter select, a one-token command, and
	// one second keyword on two states.
	{"11", "description tag-1 <text>"},
	{"12", "description tag-2 <text>"},
	{"13", "vlan [ batch ] <id>"},
	{"14", "route { static | <name> }"},
	{"15", "shutdown"},
	{"16", "peer { group <group> | as <as-number> | group enable }"},
}

// indexInstances exercise every template shape with one, two and more
// tokens, plus near misses.
var indexInstances = []string{
	"", "x", "x y z", "qos", "interface", "description", "vlan", "route",
	"shutdown", "peer",
	"qos ipv4-family", "qos inbound", "qos best-effort", "interface eth0",
	"description tag-1", "description tag-3", "vlan 10", "vlan batch",
	"route static", "route r1", "shutdown now", "peer group", "peer as",
	"ip address 10.0.0.1", "qos queue 3",
	"interface eth0 shutdown", "interface eth0 shutdown now",
	"ip address 10.0.0.1 255.255.255.0", "qos queue 3 weight 10",
	"description tag-1 uplink", "description tag-2 core-link", "description tag-3 x",
	"vlan batch 10", "vlan batch batch", "vlan 10 20", "route static x",
	"peer group g1", "peer as 100", "peer group enable", "peer as enable",
}

// allIndexTemplates builds the index over every indexTemplates entry in
// order.
func allIndexTemplates(t testing.TB) *Index {
	t.Helper()
	ix := NewIndex()
	for _, e := range indexTemplates {
		if err := ix.Add(e.id, e.tmpl, nil); err != nil {
			t.Fatalf("Add(%q): %v", e.id, err)
		}
	}
	return ix
}

// roundTrip returns the index decoded from its binary encoding.
func roundTrip(t testing.TB, ix *Index) *Index {
	t.Helper()
	w := artifact.NewWriter("cgm-test", 0)
	AppendIndexBinary(w.Section("index"), ix)
	r, err := artifact.Open(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("index")
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeIndexBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scanMatch and scanMatchBest are the brute-force oracles: every
// registered graph, no index keys.
func scanMatch(ix *Index, instance string) []string {
	var out []string
	for _, id := range ix.IDs() {
		if ix.Graph(id).Match(instance) {
			out = append(out, id)
		}
	}
	sortNaturalIDs(out)
	return out
}

func scanMatchBest(ix *Index, instance string) []string {
	toks := strings.Fields(instance)
	best := -1
	var out []string
	for _, id := range ix.IDs() {
		switch score := ix.Graph(id).Specificity(toks); {
		case score < 0:
		case score > best:
			best, out = score, []string{id}
		case score == best:
			out = append(out, id)
		}
	}
	sortNaturalIDs(out)
	return out
}

// checkAgainstScan compares keyed Match and MatchBest with the scans.
func checkAgainstScan(t *testing.T, label string, ix *Index, instance string) {
	t.Helper()
	if got, want := ix.Match(instance), scanMatch(ix, instance); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Match(%q) = %v, linear scan %v", label, instance, got, want)
	}
	if got, want := ix.MatchBest(instance), scanMatchBest(ix, instance); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: MatchBest(%q) = %v, linear scan %v", label, instance, got, want)
	}
}

func buildIndexOrder(t *testing.T, order []int) *Index {
	t.Helper()
	ix := NewIndex()
	for _, i := range order {
		e := indexTemplates[i]
		if err := ix.Add(e.id, e.tmpl, nil); err != nil {
			t.Fatalf("Add(%q): %v", e.id, err)
		}
	}
	return ix
}

// TestMatchShuffledCorporaDeterminism is the regression test for index
// determinism under the compiled-template cache: two indices holding the
// same template set in different registration orders must answer Match and
// MatchBest identically, including result order.
func TestMatchShuffledCorporaDeterminism(t *testing.T) {
	forward := buildIndexOrder(t, []int{0, 1, 2, 3, 4, 5, 6})
	shuffled := buildIndexOrder(t, []int{6, 3, 0, 5, 1, 4, 2})
	instances := []string{
		"qos ipv4-family", "qos best-effort", "qos inbound",
		"interface eth0", "interface eth0 shutdown",
		"ip address 10.0.0.1 255.255.255.0",
		"qos queue 3 weight 10", "qos queue 3",
		"no such command", "",
	}
	for _, ins := range instances {
		if got, want := shuffled.Match(ins), forward.Match(ins); !reflect.DeepEqual(got, want) {
			t.Errorf("Match(%q): shuffled %v, forward %v", ins, got, want)
		}
		if got, want := shuffled.MatchBest(ins), forward.MatchBest(ins); !reflect.DeepEqual(got, want) {
			t.Errorf("MatchBest(%q): shuffled %v, forward %v", ins, got, want)
		}
	}
	// Natural order: "10" sorts after "5" numerically (lexicographic would
	// put it first) — matching the insertion order of sequential corpus IDs.
	if got := forward.Match("qos inbound"); !reflect.DeepEqual(got, []string{"0", "10"}) {
		t.Errorf("Match(qos inbound) = %v, want [0 10]", got)
	}
}

// TestIndexMatchLinearScanGolden compares the keyed index answers with a
// brute-force scan over every registered graph, on the built index and on
// the index rebuilt by a binary round trip.
func TestIndexMatchLinearScanGolden(t *testing.T) {
	ix := allIndexTemplates(t)
	decoded := roundTrip(t, ix)
	for _, ins := range indexInstances {
		checkAgainstScan(t, "built", ix, ins)
		checkAgainstScan(t, "decoded", decoded, ins)
	}
	// The scan itself must see each shape match, or the comparison
	// proves nothing about it.
	for ins, want := range map[string][]string{
		"description tag-2 core-link": {"12"},
		"vlan batch 10":               {"13"},
		"vlan 10":                     {"13"},
		"route r1":                    {"14"},
		"route static":                {"14"},
		"shutdown":                    {"15"},
		"peer group enable":           {"16"},
		"peer group g1":               {"16"},
	} {
		if got := scanMatch(ix, ins); !reflect.DeepEqual(got, want) {
			t.Errorf("scan Match(%q) = %v, want %v", ins, got, want)
		}
	}
}

// TestIndexRunsOneAutomatonPerSecondKeyword checks the work a lookup does:
// among 200 templates that share their first keyword and differ in the
// second, a line runs only the automaton keyed by its second keyword.
func TestIndexRunsOneAutomatonPerSecondKeyword(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 200; i++ {
		if err := ix.Add(fmt.Sprint(i), fmt.Sprintf("description tag-%d <text>", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	const line = "description tag-7 x"
	before := telMatchSteps.Value()
	if !ix.Graph("7").Match(line) {
		t.Fatalf("template 7 does not match %q", line)
	}
	one := telMatchSteps.Value() - before

	before = telMatchSteps.Value()
	if got := ix.Match(line); !reflect.DeepEqual(got, []string{"7"}) {
		t.Fatalf("Match(%q) = %v, want [7]", line, got)
	}
	if steps := telMatchSteps.Value() - before; steps != one {
		t.Errorf("Match(%q) took %d automaton steps, want %d (one automaton)", line, steps, one)
	}
}

// TestTemplateCacheShares checks that the default-resolver path hands out
// one shared graph per distinct template, and that custom resolvers bypass
// the cache.
func TestTemplateCacheShares(t *testing.T) {
	ResetTemplateCache()
	g1, err := FromTemplate("router bgp <as>", nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FromTemplate("router bgp <as>", nil)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("default-resolver FromTemplate should share the compiled graph")
	}
	g3, err := FromTemplate("router bgp <as>", devmodel.InferType)
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 {
		t.Error("custom-resolver FromTemplate must bypass the shared cache")
	}
}

// TestTemplateCacheErrors checks invalid templates fail identically on the
// cached path, hit or miss.
func TestTemplateCacheErrors(t *testing.T) {
	ResetTemplateCache()
	for i := 0; i < 2; i++ {
		if _, err := FromTemplate("broken { group", nil); err == nil {
			t.Fatalf("round %d: invalid template must fail", i)
		}
	}
}

// TestTokenBounds checks the min/max token counts the index prunes with.
func TestTokenBounds(t *testing.T) {
	cases := []struct {
		tmpl     string
		min, max int
	}{
		{"interface <name>", 2, 2},
		{"qos queue <index> [ weight <w> ]", 3, 5},
		{"a { b | c d } [ e ]", 2, 4},
		{"a [ b ] [ c ] [ d ]", 1, 4},
	}
	for _, c := range cases {
		g, err := FromTemplate(c.tmpl, nil)
		if err != nil {
			t.Fatalf("%q: %v", c.tmpl, err)
		}
		lo, hi := g.TokenBounds()
		if lo != c.min || hi != c.max {
			t.Errorf("%q: bounds [%d,%d], want [%d,%d]", c.tmpl, lo, hi, c.min, c.max)
		}
	}
}

func ExampleIndex_Match() {
	ix := NewIndex()
	_ = ix.Add("0", "interface <name>", nil)
	fmt.Println(ix.Match("interface eth0"))
	// Output: [0]
}
