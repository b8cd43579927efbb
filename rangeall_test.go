package dissenter_test

import "dissenter/internal/platform"

// Collect helpers over the platform.DB Range walks, for tests that
// want a whole-store slice.

func allUsers(db *platform.DB) []*platform.User {
	var out []*platform.User
	db.RangeUsers(func(u *platform.User) bool { out = append(out, u); return true })
	return out
}

func allURLs(db *platform.DB) []*platform.CommentURL {
	var out []*platform.CommentURL
	db.RangeURLs(func(cu *platform.CommentURL) bool { out = append(out, cu); return true })
	return out
}
