package arch

import "testing"

func TestQueueSpecCapacity(t *testing.T) {
	cases := []struct {
		spec QueueSpec
		def  int
		want int
	}{
		{QueueSpec{Name: "default"}, 24, 24},
		{QueueSpec{Name: "author", Depth: 8}, 24, 8},
		{QueueSpec{Name: "shallow", Depth: 3}, 24, 3},
	}
	for _, c := range cases {
		if got := c.spec.Capacity(c.def); got != c.want {
			t.Errorf("%s: Capacity(%d) = %d, want %d", c.spec.Name, c.def, got, c.want)
		}
	}
}
