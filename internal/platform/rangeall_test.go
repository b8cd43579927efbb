package platform

import "dissenter/internal/ids"

// Collect helpers over the Range walks, for tests that want a
// whole-store slice.

func allUsers(db *DB) []*User {
	var out []*User
	db.RangeUsers(func(u *User) bool { out = append(out, u); return true })
	return out
}

func allURLs(db *DB) []*CommentURL {
	var out []*CommentURL
	db.RangeURLs(func(cu *CommentURL) bool { out = append(out, cu); return true })
	return out
}

func allComments(db *DB) []*Comment {
	var out []*Comment
	db.RangeComments(func(c *Comment) bool { out = append(out, c); return true })
	return out
}

func allFollows(db *DB) map[ids.GabID][]ids.GabID {
	out := make(map[ids.GabID][]ids.GabID)
	db.RangeFollows(func(from ids.GabID, tos []ids.GabID) bool {
		out[from] = tos
		return true
	})
	return out
}
