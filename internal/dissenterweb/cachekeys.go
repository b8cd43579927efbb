package dissenterweb

// The response cache's key space, in one place. Every cached page
// belongs to a subject — the store entity whose events invalidate or
// patch it — and a subject's keys are its prefix plus a session
// viewKey ("00".."11", see appendViewKey). The coherence view
// (coherence.go) and the read handlers MUST build keys through these
// constants and helpers: the cachecoherence analyzer rejects fresh
// "disc|"/"home|"/"trends|"/"leader|" literals at call sites, so the
// key a reader fills and the key an event drops cannot drift apart
// one callsite at a time.
const (
	// SubjectDiscussion prefixes one URL's discussion page:
	// "disc|<raw-url>|<viewKey>".
	SubjectDiscussion = "disc|"
	// SubjectHome prefixes one author's home page:
	// "home|<username>|<viewKey>".
	SubjectHome = "home|"
	// SubjectTrends prefixes the sitewide trends page:
	// "trends|<viewKey>".
	SubjectTrends = "trends|"
	// SubjectLeaderboard is the single leaderboard entry's full key —
	// the page is session-independent, so it carries no viewKey.
	SubjectLeaderboard = "leader|"
)

// DiscussionSubject returns the cache-key prefix covering every
// session view of one discussion page.
func DiscussionSubject(raw string) string { return SubjectDiscussion + raw + "|" }

// HomeSubject returns the cache-key prefix covering every session
// view of one author's home page.
func HomeSubject(username string) string { return SubjectHome + username + "|" }

// appendSubjectKey composes "<prefix><subject>|<viewKey>" into dst —
// the same bytes as DiscussionSubject(subject) plus the view key, but
// built into a caller-owned (stack) buffer so the serving hot path
// can probe the cache (respcache.GetBytes) without allocating a key
// string. Callers pass the Subject* constants as prefix, keeping the
// cachecoherence analyzer's single-source-of-truth rule intact.
func appendSubjectKey(dst []byte, prefix, subject string, sess Session) []byte {
	dst = append(dst, prefix...)
	dst = append(dst, subject...)
	dst = append(dst, '|')
	return appendViewKey(dst, sess)
}

// appendViewKey appends the session's view key: the bits of the session
// that change what is rendered. Two sessions with equal view settings
// share cache entries; a session that can see the shadow overlay never
// shares with one that cannot.
func appendViewKey(dst []byte, sess Session) []byte {
	n, o := byte('0'), byte('0')
	if sess.ShowNSFW {
		n = '1'
	}
	if sess.ShowOffensive {
		o = '1'
	}
	return append(dst, n, o)
}
