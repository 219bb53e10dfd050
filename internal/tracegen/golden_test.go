package tracegen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"piggyback/internal/trace"
)

// logDigest hashes every field of every record in order, so any change to
// the generator's RNG draw sequence or to the sort's tie order shows.
func logDigest(log trace.Log) string {
	h := sha256.New()
	for i := range log {
		r := &log[i]
		fmt.Fprintf(h, "%d|%s|%s|%s|%d|%d|%d|%v\n",
			r.Time, r.Client, r.Method, r.URL, r.Status, r.Size, r.LastModified, r.Embedded)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTraces pins the generated traces byte for byte. The digests were
// taken from the generator that sorted with sort.SliceStable and kept
// per-client state in maps keyed by the rendered client name; any faster
// implementation must reproduce them exactly.
func TestGoldenTraces(t *testing.T) {
	server := func(cfg SiteConfig) func() trace.Log {
		return func() trace.Log { log, _ := GenerateServerLog(cfg); return log }
	}
	cases := []struct {
		name string
		gen  func() trace.Log
		want string
	}{
		{"aiusa-x4", server(ProfileAIUSA(4)),
			"12ae02a02873f194b0dd939d62b6128db332346095e05cf8f2cf83708c92dfeb"},
		{"aiusa-x1", server(ProfileAIUSA(1)),
			"45c6b645fa1fa3b7013c84c479d410e419fed76ce56752e5fdc6b05fe3c8877c"},
		{"sun-x0.5", server(ProfileSun(0.5)),
			"b43f3159a89b06d7bdf2be68f2efe73ea917b3b99a8270817f0c6f3dff92cbf2"},
		{"client-seed3", func() trace.Log {
			log, _ := GenerateClientLog(ClientLogConfig{Seed: 3})
			return log
		}, "c0297d030c099a65393aec500025d98bc3d232c938eecba0e312156464453ca0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := logDigest(tc.gen()); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}
