package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRequestKey decodes two request bodies the way handleAssimilate
// does. When both pass Check, their Keys must be equal exactly when the
// normalized requests, with the tenant cleared, are equal: the key names
// the work, and only the work.
func FuzzRequestKey(f *testing.F) {
	for _, seed := range [][2]string{
		{`{}`, `{"vendors":["Huawei","Cisco","Nokia","H3C"],"scale":0.1}`},
		{`{"scale":0.05,"validate":true,"live_test":true,"seed":3,"tenant":"a"}`,
			`{"scale":0.05,"validate":true,"live_test":true,"seed":3,"tenant":"b"}`},
		{`{"scale":-1}`, `{"scale":0}`},
		{`{"vendors":[]}`, `{"scale":1e-400}`},
		{`{"vendors":["Cisco","H3C"]}`, `{"vendors":["H3C","Cisco"]}`},
		{`{"vendors":["Cisco"]}`, `{"vendors":["Cisco","Cisco"]}`},
		{`{"vendors":["Juniper"],"scale":0.5}`, `{"vendors":["Juniper"],"scale":0.50000000000000001}`},
		{`{"seed":18446744073709551615}`, `{"seed":0}`},
		{`{"validate":true}`, `{"live_test":true}`},
		{`{"scale":1}`, `{"scale":1.0000000000000002}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, errA := decodeBody(a)
		rb, errB := decodeBody(b)
		if errA != nil || errB != nil || ra.Check() != nil || rb.Check() != nil {
			return
		}
		na, nb := ra.Normalize(), rb.Normalize()
		na.Tenant, nb.Tenant = "", ""
		if same, equalKeys := reflect.DeepEqual(na, nb), ra.Key() == rb.Key(); same != equalKeys {
			t.Fatalf("normalized requests equal: %v, keys equal: %v\n%+v\n%+v", same, equalKeys, na, nb)
		}
	})
}

// decodeBody decodes one POST /v1/assimilate body as handleAssimilate
// does: one JSON value into a Request, whatever follows it ignored.
func decodeBody(b []byte) (Request, error) {
	var req Request
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, err
}
