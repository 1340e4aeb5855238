package dist

import "context"

// SendAdvert plants one full indicator advertisement under worker's name
// over a short-lived wire session and closes it: a phantom holder that no
// live connection backs. ADVERT has no reply; callers wait for
// Stats().Adverts to see it absorbed.
func SendAdvert(coordinator, worker string, m uint32, k uint8, bits []byte) error {
	tr, err := newTransport(WorkerOptions{Coordinator: coordinator, Name: worker})
	if err != nil {
		return err
	}
	defer tr.Close()
	_, err = tr.Advert(context.Background(), &cellFilter{m: m, k: k, bits: bits})
	return err
}
