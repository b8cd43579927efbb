package allsides

import "testing"

func TestRateKnownOutlets(t *testing.T) {
	cases := map[string]Bias{
		"https://www.foxnews.com/politics/story":    Right,
		"https://www.breitbart.com/x":               Right,
		"https://www.dailymail.co.uk/news/a":        RightCenter,
		"https://www.bbc.co.uk/news/world":          Center,
		"https://www.nytimes.com/2020/article":      LeftCenter,
		"https://www.cnn.com/2020/politics":         Left,
		"https://www.theguardian.com/commentisfree": LeftCenter,
	}
	for in, want := range cases {
		if got := Rate(in); got != want {
			t.Errorf("Rate(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestRateUnranked(t *testing.T) {
	for _, u := range []string{
		"https://www.youtube.com/watch?v=abc",
		"https://youtu.be/abc",
		"https://twitter.com/user/status/1",
		"https://gab.com/a",
		"https://bitchute.com/video/1",
		"https://thewatcherfiles.com/conspiracy",
		"chrome://startpage/",
		"",
	} {
		if got := Rate(u); got != NotRanked {
			t.Errorf("Rate(%q) = %v, want NotRanked", u, got)
		}
	}
}

func TestCategoriesOrder(t *testing.T) {
	cats := Categories()
	if len(cats) != 5 {
		t.Fatalf("len = %d", len(cats))
	}
	for i := 1; i < len(cats); i++ {
		if cats[i-1] >= cats[i] {
			t.Fatal("Categories not in left-to-right order")
		}
	}
	all := AllCategories()
	if len(all) != 6 || all[5] != NotRanked {
		t.Fatalf("AllCategories = %v", all)
	}
}

func TestStringNames(t *testing.T) {
	names := map[Bias]string{
		Left: "Left", LeftCenter: "Left-Center", Center: "Center",
		RightCenter: "Right-Center", Right: "Right", NotRanked: "Not Ranked",
		Bias(42): "Not Ranked",
	}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(b), b.String(), want)
		}
	}
}

func TestSyntheticOutletsRated(t *testing.T) {
	// The synthetic generator's outlets must be covered so Figure 8 has a
	// populated rated universe at any scale.
	for _, d := range []string{"liberty-ledger.com", "progress-post.com", "capital-chronicle.com"} {
		if RateDomain(d) == NotRanked {
			t.Errorf("synthetic outlet %q unrated", d)
		}
	}
}
