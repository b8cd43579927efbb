package htmlx

import (
	"testing"
	"testing/quick"
)

func TestBetween(t *testing.T) {
	s := `<div class="a">hello</div>`
	got, ok := Between(s, `class="`, `"`)
	if !ok || got != "a" {
		t.Errorf("Between = %q %v", got, ok)
	}
	if _, ok := Between(s, "missing", "x"); ok {
		t.Error("missing start should fail")
	}
	if _, ok := Between(s, `class="`, "zzz"); ok {
		t.Error("missing end should fail")
	}
}

func TestAttr(t *testing.T) {
	frag := `div class="comment" data-comment-id="abc123" data-parent-id=""`
	if got, ok := Attr(frag, "data-comment-id"); !ok || got != "abc123" {
		t.Errorf("Attr = %q %v", got, ok)
	}
	if got, ok := Attr(frag, "data-parent-id"); !ok || got != "" {
		t.Errorf("empty Attr = %q %v", got, ok)
	}
	if _, ok := Attr(frag, "nope"); ok {
		t.Error("missing attr should fail")
	}
}

func TestFindTags(t *testing.T) {
	page := `
<div class="comment" data-comment-id="c1"><p>first</p></div>
<div class="comment" data-comment-id="c2"><p>second &amp; third</p></div>
<divider>not a div</divider>
<span>other</span>`
	tags := FindTags(page, "div")
	if len(tags) != 2 {
		t.Fatalf("FindTags found %d, want 2", len(tags))
	}
	if id, _ := Attr(tags[0].Raw, "data-comment-id"); id != "c1" {
		t.Errorf("tag 0 raw = %q", tags[0].Raw)
	}
	if tags[1].Text != "<p>second & third</p>" {
		t.Errorf("tag 1 text = %q", tags[1].Text)
	}
}

func TestFindTagsUnclosed(t *testing.T) {
	tags := FindTags(`<div class="x">`, "div")
	if len(tags) != 1 || tags[0].Text != "" {
		t.Errorf("unclosed tag: %+v", tags)
	}
}

func TestCommentedOutJS(t *testing.T) {
	page := `<script>
// var commentAuthor = {"username":"a","language":"en"};
var commentView = {"ready": true};
</script>`
	blob, ok := CommentedOutJS(page, "commentAuthor")
	if !ok || blob != `{"username":"a","language":"en"}` {
		t.Errorf("CommentedOutJS = %q %v", blob, ok)
	}
	if _, ok := CommentedOutJS(page, "other"); ok {
		t.Error("missing var should fail")
	}
}

func TestQuickBetweenNeverPanics(t *testing.T) {
	f := func(s, start, end string) bool {
		if start == "" || end == "" {
			return true
		}
		_, _ = Between(s, start, end)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFindTags(b *testing.B) {
	page := ""
	for i := 0; i < 100; i++ {
		page += `<div class="comment" data-comment-id="c1"><p>text here</p></div>` + "\n"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindTags(page, "div")
	}
}
