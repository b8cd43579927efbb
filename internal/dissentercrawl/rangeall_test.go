package dissentercrawl

import (
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// Collect helpers over the platform.DB Range walks, for tests that
// want a whole-store slice.

func allURLs(db *platform.DB) []*platform.CommentURL {
	var out []*platform.CommentURL
	db.RangeURLs(func(cu *platform.CommentURL) bool { out = append(out, cu); return true })
	return out
}

func allComments(db *platform.DB) []*platform.Comment {
	var out []*platform.Comment
	db.RangeComments(func(c *platform.Comment) bool { out = append(out, c); return true })
	return out
}

func allFollows(db *platform.DB) map[ids.GabID][]ids.GabID {
	out := make(map[ids.GabID][]ids.GabID)
	db.RangeFollows(func(from ids.GabID, tos []ids.GabID) bool {
		out[from] = tos
		return true
	})
	return out
}
