package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"testing"
)

// FuzzDecodeSubmit is the round-trip oracle for the POST /jobs body
// decoder. For any body and limit the decoder must not panic, must read at
// most limit+1 bytes, and must fail with *http.MaxBytesError exactly when
// it would otherwise read past the limit. Whatever both the decoder and
// Validate accept must survive json.Marshal: the encoding decodes again
// to an equal request whose spec has the same cache key.
func FuzzDecodeSubmit(f *testing.F) {
	for _, body := range []string{
		`{"experiment":"E10","seed":3,"scale":"quick"}`,
		`{"experiment":"E20","seed":2,"scale":"quick","ns":[16],"ks":[4],"faults":"drop=0.2"}`,
		`{"experiment":"E20","seed":1,"scale":"full","ns":[8,16,32],"ks":[2,4],"faults":"dup=0.1,drop=0.2","workers":4,"tenant":"t"}`,
		`{"experiment":"E99","scale":"quick"}`,
		`{"experiment":"E1"}`,
		`not json`,
		`{"experiment":"E1","scale":"quick","bogus":1}`,
		`{"experiment":"E20","scale":"quick","faults":"drop=NaN"}`,
		`{"experiment":"E8","seed":1,"scale":"quick"} trailing garbage`,
		`{"experiment":"E8","seed":1,"scale":"quick"}}`,
		`{"experiment":"E8","seed":1,"scale":"quick"}{}`,
		`{"experiment":"E8","seed":1,"scale":"quick"}` + " \n\t",
		`{"experiment":"E8","seed":1,"scale":"quick","ns":[],"ks":null}`,
		`null`,
	} {
		f.Add([]byte(body), uint16(0))
		f.Add([]byte(body), uint16(len(body)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		lim := int64(limit)
		if lim == 0 {
			lim = maxSpecBytes
		}
		body := &countingReader{r: bytes.NewReader(data)}
		req, err := decodeSubmit(nil, io.NopCloser(body), lim)
		if body.n > lim+1 {
			t.Fatalf("read %d bytes under a limit of %d", body.n, lim)
		}
		over := errors.As(err, new(*http.MaxBytesError))
		if over && int64(len(data)) <= lim {
			t.Fatalf("a %d-byte body failed a limit of %d: %v", len(data), lim, err)
		}
		if err == nil && int64(len(data)) > lim {
			t.Fatalf("a %d-byte body passed a limit of %d", len(data), lim)
		}
		if err != nil || req.Validate() != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal %+v: %v", req, err)
		}
		again, err := decodeSubmit(nil, io.NopCloser(bytes.NewReader(enc)), int64(len(enc)))
		if err != nil {
			t.Fatalf("%s does not decode again: %v", enc, err)
		}
		if !reflect.DeepEqual(normalize(req), normalize(again)) {
			t.Fatalf("%q decodes to %+v, but its encoding %s decodes to %+v", data, req, enc, again)
		}
		k1, err1 := req.Key("fuzz")
		k2, err2 := again.Key("fuzz")
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("keys differ across the round trip: %q (%v) vs %q (%v)", k1, err1, k2, err2)
		}
	})
}

// normalize maps empty grids to nil: omitempty drops both, and both mean
// "the experiment's default grid".
func normalize(r submitRequest) submitRequest {
	if len(r.Ns) == 0 {
		r.Ns = nil
	}
	if len(r.Ks) == 0 {
		r.Ks = nil
	}
	return r
}
