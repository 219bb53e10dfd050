package tracegen

import "testing"

// BenchmarkGenerateServerLog times one full AIUSA×4 trace (240k records):
// site build, session synthesis and the time sort.
func BenchmarkGenerateServerLog(b *testing.B) {
	cfg := ProfileAIUSA(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateServerLog(cfg)
	}
}
