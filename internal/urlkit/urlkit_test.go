package urlkit

import (
	"testing"
	"testing/quick"
)

func TestClassifyScheme(t *testing.T) {
	cases := map[string]SchemeClass{
		"https://example.com/a":       SchemeHTTPS,
		"http://example.com/a":        SchemeHTTP,
		"chrome://startpage/":         SchemeBrowser,
		"about:blank":                 SchemeBrowser,
		"file:///C:/Users/x/doc.pdf":  SchemeFile,
		"ftp://example.com":           SchemeOther,
		"not a url at all ::":         SchemeOther,
		"HTTPS://UPPER.example.com/a": SchemeHTTPS,
	}
	for in, want := range cases {
		if got := ClassifyScheme(in); got != want {
			t.Errorf("ClassifyScheme(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestSchemeClassString(t *testing.T) {
	names := map[SchemeClass]string{
		SchemeHTTPS: "https", SchemeHTTP: "http", SchemeBrowser: "browser",
		SchemeFile: "file", SchemeOther: "other",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
}

func TestTLD(t *testing.T) {
	cases := map[string]string{
		"https://www.youtube.com/watch?v=1": "com",
		"https://bbc.co.uk/news":            "uk",
		"https://youtu.be/xyz":              "be",
		"https://example.de/":               "de",
		"chrome://startpage/":               "(no host? see Host)",
	}
	delete(cases, "chrome://startpage/")
	for in, want := range cases {
		if got := TLD(in); got != want {
			t.Errorf("TLD(%q) = %q, want %q", in, got, want)
		}
	}
	if got := TLD("chrome://startpage/"); got != "startpage" {
		// chrome:// URLs parse with host "startpage".
		t.Errorf("TLD(chrome://startpage/) = %q", got)
	}
}

func TestDomain(t *testing.T) {
	cases := map[string]string{
		"https://www.youtube.com/watch":         "youtube.com",
		"https://news.bbc.co.uk/article":        "bbc.co.uk",
		"https://www.dailymail.co.uk/x":         "dailymail.co.uk",
		"https://youtu.be/abc":                  "youtu.be",
		"https://foo.bar.example.com.au/":       "example.com.au",
		"https://localhost/x":                   "localhost",
		"https://deutschland.de/":               "deutschland.de",
		"https://a.b.c.d.theguardian.com/world": "theguardian.com",
	}
	for in, want := range cases {
		if got := Domain(in); got != want {
			t.Errorf("Domain(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCanonicalKey(t *testing.T) {
	cases := map[string]string{
		"http://example.com/a":              "https://example.com/a",
		"https://example.com/a/":            "https://example.com/a",
		"https://example.com/a?x=1&y=2&z=3": "https://example.com/a?x=1",
		"https://EXAMPLE.com/a":             "https://example.com/a",
		"https://example.com/":              "https://example.com",
	}
	for in, want := range cases {
		if got := CanonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCanonicalKeyPreservesDistinctContent(t *testing.T) {
	a := CanonicalKey("https://example.com/a?page=1")
	b := CanonicalKey("https://example.com/a?page=2")
	if a == b {
		t.Error("distinct first query params should stay distinct")
	}
}

func TestAnalyzeOverCount(t *testing.T) {
	urls := []string{
		"https://example.com/a",
		"http://example.com/a", // scheme twin of the above
		"https://example.com/b",
		"https://example.com/b/", // slash twin
		"https://example.com/c?x=1&y=2",
		"https://example.com/c?x=1&y=3", // collapses with the above
		"https://example.com/d",
	}
	oc := AnalyzeOverCount(urls)
	if oc.Total != 7 {
		t.Errorf("Total = %d", oc.Total)
	}
	if oc.SchemeOnly != 2 { // both members of the pair are counted
		t.Errorf("SchemeOnly = %d, want 2", oc.SchemeOnly)
	}
	if oc.SlashOnly != 2 {
		t.Errorf("SlashOnly = %d, want 2", oc.SlashOnly)
	}
	// Canonical keys: a, b, c?x=1, d -> 4 unique.
	if oc.UniqueCanon != 4 {
		t.Errorf("UniqueCanon = %d, want 4", oc.UniqueCanon)
	}
	if oc.QueryCollapsed != 3 {
		t.Errorf("QueryCollapsed = %d, want 3", oc.QueryCollapsed)
	}
}

func TestRankBy(t *testing.T) {
	urls := []string{
		"https://a.com/1", "https://a.com/2", "https://b.org/1",
		"https://c.com/1", "https://c.com/2", "https://c.com/3",
	}
	ranked := RankDomains(urls)
	if len(ranked) != 3 {
		t.Fatalf("len = %d", len(ranked))
	}
	if ranked[0].Name != "c.com" || ranked[0].N != 3 {
		t.Errorf("top = %+v", ranked[0])
	}
	if ranked[1].Name != "a.com" || ranked[2].Name != "b.org" {
		t.Errorf("order = %+v", ranked)
	}
	tlds := RankTLDs(urls)
	if tlds[0].Name != "com" || tlds[0].N != 5 {
		t.Errorf("tlds = %+v", tlds)
	}
}

func TestRankByEmptyKey(t *testing.T) {
	ranked := RankTLDs([]string{"::not a url::"})
	if len(ranked) != 1 || ranked[0].Name != "(none)" {
		t.Errorf("ranked = %+v", ranked)
	}
}

func TestIsYouTube(t *testing.T) {
	yes := []string{
		"https://www.youtube.com/watch?v=abc",
		"https://youtu.be/abc",
		"https://m.youtube.com/channel/xyz",
	}
	no := []string{
		"https://example.com/youtube.com",
		"https://example.com/?ref=youtube.com/x",
		"https://example.com/mirror/youtu.be/abc",
		"https://notyoutube.com/watch",
		"https://bitchute.com/video/1",
	}
	for _, u := range yes {
		if !IsYouTube(u) {
			t.Errorf("IsYouTube(%q) = false", u)
		}
	}
	for _, u := range no {
		if IsYouTube(u) {
			t.Errorf("IsYouTube(%q) = true", u)
		}
	}
}

func TestQuickCanonicalKeyIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := CanonicalKey(s)
		return CanonicalKey(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCanonicalKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CanonicalKey("https://www.youtube.com/watch?v=abc&t=10s&src=share")
	}
}

func BenchmarkDomain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Domain("https://news.bbc.co.uk/article/12345")
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		// Trivially different encodings collapse.
		{"HTTPS://WWW.Example.ORG/2019/04/story", "https://www.example.org/2019/04/story"},
		{"https://example.org:443/x", "https://example.org/x"},
		{"http://example.org:80/x", "http://example.org/x"},
		{"https://example.org/x#section-2", "https://example.org/x"},
		{"https://example.org#top", "https://example.org"},
		// Distinctions Dissenter preserved stay distinct (identity).
		{"http://www.daily-disclosure.com/dup/001/a-b-c", "http://www.daily-disclosure.com/dup/001/a-b-c"},
		{"https://www.frontier-forum.com/slash/001/a/", "https://www.frontier-forum.com/slash/001/a/"},
		{"https://www.a.com/p?id=1&utm_source=x&ref=y", "https://www.a.com/p?id=1&utm_source=x&ref=y"},
		{"https://www.youtube.com/watch?v=AbC123xyZ99", "https://www.youtube.com/watch?v=AbC123xyZ99"},
		{"https://example.org:8443/x", "https://example.org:8443/x"},
		{"https://example.org/a%20b", "https://example.org/a%20b"},
		// IPv6 literals keep their brackets.
		{"https://[2001:DB8::1]/x", "https://[2001:db8::1]/x"},
		{"https://[::1]:8443/x", "https://[::1]:8443/x"},
		{"https://[::1]:443/x", "https://[::1]/x"},
		// Opaque, hostless, and unparseable inputs pass through verbatim:
		// covert-channel anchors must stay addressable as submitted (§6).
		{"about:blank", "about:blank"},
		{"file:///C:/leaked/report-1.docx", "file:///C:/leaked/report-1.docx"},
		{"dissenter://secret/meeting-point-7", "dissenter://secret/meeting-point-7"},
		{"not a url at all", "not a url at all"},
		{"https://user:pw@example.org/x", "https://user:pw@example.org/x"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
