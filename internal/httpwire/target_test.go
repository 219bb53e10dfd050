package httpwire

import "testing"

func TestSplitTarget(t *testing.T) {
	for _, tc := range []struct {
		name, path, host   string
		wantHost, wantPath string
		wantErr            bool
	}{
		{name: "absolute URI", path: "http://www.site.com/a/x.html", wantHost: "www.site.com", wantPath: "/a/x.html"},
		{name: "bare http://host", path: "http://www.site.com", wantHost: "www.site.com", wantPath: "/"},
		{name: "Host header form", path: "a/x.html", host: "www.site.com", wantHost: "www.site.com", wantPath: "/a/x.html"},
		{name: "missing Host", path: "/a/x.html", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := NewRequest("GET", tc.path)
			if tc.host != "" {
				req.Header.Set("Host", tc.host)
			}
			host, path, err := SplitTarget(req)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if host != tc.wantHost || path != tc.wantPath {
				t.Errorf("SplitTarget(%q) = %q, %q; want %q, %q", tc.path, host, path, tc.wantHost, tc.wantPath)
			}
		})
	}
}
