package cgm

import "testing"

// FuzzIndexMatch checks the two-keyword index against the brute-force
// scan on arbitrary instance lines over the template set of every
// second-position shape, on the built and the decoded index.
func FuzzIndexMatch(f *testing.F) {
	for _, ins := range indexInstances {
		f.Add(ins)
	}
	ix := allIndexTemplates(f)
	decoded := roundTrip(f, ix)
	f.Fuzz(func(t *testing.T, instance string) {
		checkAgainstScan(t, "built", ix, instance)
		checkAgainstScan(t, "decoded", decoded, instance)
	})
}
